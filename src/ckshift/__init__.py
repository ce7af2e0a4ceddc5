"""Entropy of subshifts of finite type, three independent ways, plus an
exact symbolic verifier for the associated generator algebra.

The public names live in the submodules ``matrix``, ``sft`` and ``ck``.
Each is looked up in its submodule when it is asked for (PEP 562), so
``import ckshift`` loads none of them, and a program that never touches the
algebra never compiles ``ck``.  The lookup is not cached: the package
always hands out the submodule's current binding.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "DualDecomposition",
            "EntryOutOfRangeError",
            "IntMatrix",
            "MatrixError",
            "NoConvergenceError",
            "NotIrreducibleError",
            "NotSquareError",
            "PerronData",
            "TransitionMatrix",
            "ZeroColumnError",
            "ZeroRowError",
            "dual_matrix",
            "is_irreducible",
            "is_permutation",
            "load_int_matrix",
            "load_matrix",
            "matrix_power",
            "spectral_radius",
            "validate",
            "validate_int",
            "witness_dimension",
            "word_count",
        ),
        "matrix",
    ),
    **dict.fromkeys(
        (
            "WORD_CAP",
            "ConvergenceReport",
            "ConvergenceRow",
            "ParryData",
            "SymbolOutOfRangeError",
            "TooManyWordsError",
            "cylinder_probability",
            "entropy_estimates",
            "enumerate_words",
            "is_admissible",
            "markov_entropy",
            "parry_measure",
            "partition_entropy",
        ),
        "sft",
    ),
    **dict.fromkeys(
        (
            "BlockDiagonal",
            "BlockMatrix",
            "CKElement",
            "CuntzKriegerAlgebra",
            "DepthExceededError",
            "DepthTooSmallError",
            "InadmissibleWordError",
            "Monomial",
            "NonZeroDegreeError",
            "VerificationReport",
            "WitnessPreconditionError",
            "verify_relations",
            "verify_witness_decomposition",
        ),
        "ck",
    ),
}

# the names ``from ckshift import *`` binds: the public names and the three
# submodules, which the import system loads for it
__all__ = [*_EXPORTS, "matrix", "sft", "ck"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
