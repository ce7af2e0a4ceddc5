"""Entropy of subshifts of finite type, three independent ways, plus an
exact symbolic verifier for the associated generator algebra.

The public names live in the submodules ``matrix``, ``sft`` and ``ck``.
``import ckshift`` loads ``matrix`` and ``sft``, which every use of the
package needs, and binds their public names.  The names of the algebra
module ``ck`` are looked up in it when they are asked for (PEP 562), so a
program that never touches the algebra never compiles ``ck``.  That lookup
is not cached: the package always hands out ``ck``'s current binding.
"""

from importlib import import_module as _import_module

from . import matrix, sft
from .matrix import *  # noqa: F401,F403
from .sft import *  # noqa: F401,F403

__version__ = "0.1.0"

# the public names of ``ck``, its ``__all__``, which loads on the first of
# them asked for
_CK_NAMES = (
    "InadmissibleWordError",
    "DepthTooSmallError",
    "NonZeroDegreeError",
    "DepthExceededError",
    "WitnessPreconditionError",
    "Monomial",
    "CKElement",
    "CuntzKriegerAlgebra",
    "BlockMatrix",
    "BlockDiagonal",
    "VerificationReport",
    "verify_relations",
    "verify_witness_decomposition",
)

# the names ``from ckshift import *`` binds: the public names and the three
# submodules, which the import system loads for it
__all__ = [*matrix.__all__, *sft.__all__, *_CK_NAMES, "matrix", "sft", "ck"]


def __getattr__(name: str):
    if name not in _CK_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.ck"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
