"""ML models trained by the reproduction.

Convex models (logistic regression, linear SVM) and k-means are exact
numpy implementations. MobileNet/ResNet50 are represented by small
neural-network surrogates carrying the paper's *logical* parameter
sizes and compute profiles (see `repro.models.zoo`).
"""

from repro.models.base import SupervisedModel
from repro.models.kmeans import KMeansModel
from repro.models.linear import LinearSVM, LogisticRegression
from repro.models.nn import MLPClassifier
from repro.models.zoo import ComputeProfile, ModelInfo, build_model, get_model_info

__all__ = [
    "SupervisedModel",
    "LogisticRegression",
    "LinearSVM",
    "KMeansModel",
    "MLPClassifier",
    "ModelInfo",
    "ComputeProfile",
    "build_model",
    "get_model_info",
]
