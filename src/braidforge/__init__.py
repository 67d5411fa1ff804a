"""braidforge: exact construction and machine verification of n-Leibniz
algebras, n-racks, linear n-racks, and the Yang-Baxter / higher
Yang-Baxter operators and set-theoretical solutions they induce."""

from . import errors, linrack, nleibniz, nrack, scalars, serialization, setsol, tensor, ybops
from .linrack import Coalgebra, LinearNRack
from .nleibniz import NLeibnizAlgebra
from .nrack import FiniteGroup, FiniteNRack, VectorNRack
from .reports import Check, VerificationReport
from .setsol import SetNMap, SolutionProfile
from .tensor import TensorOperator, TensorShape
from .ybops import YBReport

__all__ = [
    "Check",
    "Coalgebra",
    "FiniteGroup",
    "FiniteNRack",
    "LinearNRack",
    "NLeibnizAlgebra",
    "SetNMap",
    "SolutionProfile",
    "TensorOperator",
    "TensorShape",
    "VectorNRack",
    "VerificationReport",
    "YBReport",
    "errors",
    "linrack",
    "nleibniz",
    "nrack",
    "scalars",
    "serialization",
    "setsol",
    "tensor",
    "ybops",
]

__version__ = "0.1.0"
