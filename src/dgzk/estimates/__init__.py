"""Numerical laboratory for the oscillatory-sum estimates behind the model."""
from .bump import *
from .expsums import *
from .oscillatory import *
from ._shellscan import *
from .kernels import *
from .strichartz import *
from . import _shellscan, bump, expsums, kernels, oscillatory, strichartz

__all__ = [name for module in (bump, expsums, oscillatory, _shellscan, kernels, strichartz)
           for name in module.__all__]
