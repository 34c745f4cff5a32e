"""Exact tools around Gaussian binomial coefficients: coefficient
expansion, strict unimodality classification, Littlewood-Richardson and
Kronecker coefficients, and machine-checkable additivity certificates.
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
from .kronecker import (
    InternalConsistencyError,
    a_k,
    g_oracle,
    g_two_row,
    semigroup_check,
    two_row,
)
from .lr import lr
from .partitions import (
    Partition,
    format_partition,
    parse_partition,
    partitions_inside,
    partitions_of,
)
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
