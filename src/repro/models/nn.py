"""Numpy MLP classifier with manual backprop.

Serves as the physical surrogate for the paper's MobileNet/ResNet50
(see `repro.models.zoo`): a real non-convex model whose training curve
supplies statistical efficiency, while logical parameter sizes and
compute profiles supply system costs. Parameters live in one flat
float32 vector so the distributed optimizers treat it exactly like the
linear models.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import SupervisedModel


class MLPClassifier(SupervisedModel):
    """Multi-layer perceptron with ReLU hidden layers and softmax output."""

    def __init__(self, n_features: int, hidden: tuple[int, ...], n_classes: int):
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        self.n_features = n_features
        self.hidden = tuple(hidden)
        self.n_classes = n_classes
        self.dtype = np.dtype(np.float32)

        sizes = [n_features, *self.hidden, n_classes]
        self._shapes: list[tuple[tuple[int, int], tuple[int,]]] = []
        offset = 0
        self._slices: list[tuple[slice, slice]] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w_size, b_size = fan_in * fan_out, fan_out
            self._shapes.append(((fan_in, fan_out), (fan_out,)))
            self._slices.append(
                (slice(offset, offset + w_size), slice(offset + w_size, offset + w_size + b_size))
            )
            offset += w_size + b_size
        self.n_params = offset

    # -- parameter plumbing ----------------------------------------------------
    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        params = np.empty(self.n_params, dtype=self.dtype)
        for (w_shape, b_shape), (w_slice, b_slice) in zip(self._shapes, self._slices):
            fan_in = w_shape[0]
            scale = np.sqrt(2.0 / fan_in)  # He init for ReLU
            params[w_slice] = (rng.standard_normal(w_shape) * scale).astype(self.dtype).ravel()
            params[b_slice] = 0.0
        return params

    def _unpack(self, params: np.ndarray):
        for (w_shape, _), (w_slice, b_slice) in zip(self._shapes, self._slices):
            yield params[w_slice].reshape(w_shape), params[b_slice]

    # -- forward / backward -----------------------------------------------------
    def _forward(self, params: np.ndarray, X: np.ndarray):
        activations = [np.asarray(X, dtype=self.dtype)]
        layers = list(self._unpack(params))
        for i, (W, b) in enumerate(layers):
            z = activations[-1] @ W + b
            if i < len(layers) - 1:
                z = np.maximum(z, 0.0)  # ReLU
            activations.append(z)
        return activations

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def loss(self, params: np.ndarray, X, y: np.ndarray) -> float:
        logits = self._forward(params, X)[-1]
        log_p = self._log_softmax(logits)
        return float(-log_p[np.arange(y.shape[0]), y].mean())

    def loss_and_gradient(self, params: np.ndarray, X, y: np.ndarray):
        activations = self._forward(params, X)
        log_p = self._log_softmax(activations[-1])
        loss = float(-log_p[np.arange(y.shape[0]), y].mean())
        return loss, self._backprop(params, activations, log_p, y)

    def gradient(self, params: np.ndarray, X, y: np.ndarray) -> np.ndarray:
        # The SGD step reads no loss, so none is computed.
        activations = self._forward(params, X)
        return self._backprop(params, activations, self._log_softmax(activations[-1]), y)

    def _backprop(self, params: np.ndarray, activations: list, log_p: np.ndarray, y):
        """The gradient of the mean cross-entropy, from the forward pass's
        `activations` and output log-probabilities `log_p`."""
        n = y.shape[0]
        grad = np.zeros(self.n_params, dtype=self.dtype)
        layers = list(self._unpack(params))
        # dL/dlogits for softmax cross-entropy.
        delta = np.exp(log_p)
        delta[np.arange(n), y] -= 1.0
        delta /= n
        for i in reversed(range(len(layers))):
            W, _ = layers[i]
            a_prev = activations[i]
            w_slice, b_slice = self._slices[i]
            grad[w_slice] = (a_prev.T @ delta).ravel()
            grad[b_slice] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ W.T
                delta[activations[i] <= 0.0] = 0.0  # ReLU mask
        return grad

    def predict(self, params: np.ndarray, X) -> np.ndarray:
        logits = self._forward(params, X)[-1]
        return logits.argmax(axis=1)

    def accuracy(self, params: np.ndarray, X, y: np.ndarray) -> float:
        return float((self.predict(params, X) == y).mean())
