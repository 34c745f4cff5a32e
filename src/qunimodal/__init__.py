"""Exact tools around Gaussian binomial coefficients: coefficient
expansion, strict unimodality classification, Littlewood-Richardson and
Kronecker coefficients, and machine-checkable additivity certificates.

``import qunimodal`` loads the submodules that expansion, strictness and
certificates run on: ``qbinomial``, ``unimodality``, ``certify`` and
``lr``.  The names of ``kronecker`` and ``partitions`` are in the package
too, but each loads its module on first use (PEP 562 ``__getattr__``).
``certify`` and ``lr`` stay loaded at import: the package exports a
function under each of their names, and a later first load of either
submodule would rebind the package attribute to the module.
"""

from .certify import (
    AddNode,
    BaseNode,
    Certificate,
    CertificateFormatError,
    NotCertifiableError,
    VerificationResult,
    build_base_registry,
    certify,
    default_registry,
    parse_certificate,
    serialize_certificate,
    verify,
)
from .lr import lr
from .qbinomial import QPolynomial, gaussian, gaussian_by_enumeration
from .unimodality import (
    EXCEPTION_PAIRS,
    PairClass,
    UnimodalityReport,
    check_strict,
    classify,
    scan,
)

__version__ = "0.1.0"

# exported name -> the submodule that defines it, loaded on first use
_ON_DEMAND = {
    "InternalConsistencyError": "kronecker",
    "a_k": "kronecker",
    "g_oracle": "kronecker",
    "g_two_row": "kronecker",
    "semigroup_check": "kronecker",
    "two_row": "kronecker",
    "Partition": "partitions",
    "format_partition": "partitions",
    "parse_partition": "partitions",
    "partitions_inside": "partitions",
    "partitions_of": "partitions",
}


def __getattr__(name: str):
    if name not in _ON_DEMAND:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_ON_DEMAND[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _ON_DEMAND.keys())


__all__ = [
    "AddNode",
    "BaseNode",
    "Certificate",
    "CertificateFormatError",
    "EXCEPTION_PAIRS",
    "InternalConsistencyError",
    "NotCertifiableError",
    "PairClass",
    "Partition",
    "QPolynomial",
    "UnimodalityReport",
    "VerificationResult",
    "a_k",
    "build_base_registry",
    "certify",
    "check_strict",
    "classify",
    "default_registry",
    "format_partition",
    "g_oracle",
    "g_two_row",
    "gaussian",
    "gaussian_by_enumeration",
    "lr",
    "parse_certificate",
    "parse_partition",
    "partitions_inside",
    "partitions_of",
    "scan",
    "semigroup_check",
    "serialize_certificate",
    "two_row",
    "verify",
]
