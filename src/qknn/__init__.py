"""Quantum nearest-neighbour classification benchmarks on a state-vector
simulator, with variational and classical baselines, Pauli noise studies,
and repetition-code error mitigation.

Modules:

* sim        - dense state-vector simulator and gate set
* encoding   - phase feature encoding and the entangling map
* noise      - Pauli channels as Monte-Carlo trajectories
* qec        - bit-flip repetition code, decoded in closed form
* classifier - swap-test k-nearest-neighbour model
* qnn        - variational circuit baseline with parameter-shift training
* cknn       - classical Euclidean k-nearest-neighbour baseline
* data       - UCI loaders, normalization, chi-square selection, splits
* metrics    - confusion matrix, precision/recall/F1, rank AUC
* bench      - seeded experiment orchestration and replayable reports
* cli        - the ``bench`` command
"""

__version__ = "0.1.0"
