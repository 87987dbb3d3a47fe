"""A deliberately slow reference for the engine and storage plane.

Three modules written from README's contract rather than from the code
they check: :mod:`.engine` (one heap, every event through it with a
seq), :mod:`.store` (a flat sorted key list, linear waiter scans, a
linear-min k-server queue, the unfused book -> bill -> charge chain,
polls billed one ``+=`` at a time, per-key discards) and
:mod:`.patterns` (AllReduce / ScatterReduce one op at a time). They
import nothing from the modules they check (``test_reference.py``
guards that); :mod:`.harness` runs one world on both and compares what
is observable, and ``mutants.py`` measures what that comparison kills.
"""
