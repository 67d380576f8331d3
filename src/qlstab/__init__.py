"""Quasi-local dissipative stabilizability: analysis, synthesis, dynamics.

Decide whether a target pure state of a multipartite system can be made the
unique attractor of purely dissipative Markovian dynamics whose noise
operators act only inside fixed neighborhoods; construct the stabilizing
operators, the associated parent Hamiltonian, and certify and simulate the
resulting evolution.
"""

__version__ = "0.1.0"

from .tensor import *
from .subspaces import *
from .analysis import *
from .synthesis import *
from .dynamics import *
