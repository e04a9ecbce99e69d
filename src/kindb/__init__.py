"""kindb: reasoning about inclusion dependencies over monoid-annotated databases.

Core pieces: monoid specifications with structural classification
(``monoid``), annotated relations and databases (``kdb``), dependency syntax
and satisfaction (``ind``), proof-producing derivability (``infer``), the
classical and additive chases (``chase``), dichotomy-based entailment with
verified countermodels (``entail``), and a bounded brute-force falsifier
(``oracle``).
"""

from .chase import (
    ChaseConfig,
    ChaseStep,
    ChaseTrace,
    canonical_start,
    classical_chase,
    plus_chase,
    replay,
    trace_to_json,
)
from .entail import (
    Countermodel,
    EntailmentVerdict,
    build_countermodel_ca,
    decide_entailment,
)
from .errors import KindbError
from .ind import (
    IND,
    format_ind,
    infer_schema,
    inverse,
    load_ind_file,
    parse_ind,
    parse_ind_list,
    satisfies,
)
from .infer import (
    DerivationProof,
    RuleSystem,
    check_proof,
    derives,
    project_permute,
    proof_to_json,
    proof_to_text,
    saturate,
    transitivity,
    weak_symmetry,
)
from .kdb import (
    STAR,
    KDatabase,
    KRelation,
    Schema,
    degree,
    dump_database,
    is_balanced,
    load_database,
    load_database_file,
    make_database,
    marginalize,
    schema_of,
    support,
)
from .monoid import (
    BOOLEAN,
    MAX_NATURALS,
    NATURALS,
    NONNEG_RATIONALS,
    Element,
    MonoidSpec,
    PropertyReport,
    embed_naturals,
    parse_monoid,
    table_from_dict,
)
from .oracle import brute_force_balanced_entails, brute_force_entails

__all__ = [
    "BOOLEAN",
    "MAX_NATURALS",
    "NATURALS",
    "NONNEG_RATIONALS",
    "STAR",
    "ChaseConfig",
    "ChaseStep",
    "ChaseTrace",
    "Countermodel",
    "DerivationProof",
    "Element",
    "EntailmentVerdict",
    "IND",
    "KDatabase",
    "KRelation",
    "KindbError",
    "MonoidSpec",
    "PropertyReport",
    "RuleSystem",
    "Schema",
    "brute_force_balanced_entails",
    "brute_force_entails",
    "build_countermodel_ca",
    "canonical_start",
    "check_proof",
    "classical_chase",
    "decide_entailment",
    "degree",
    "derives",
    "dump_database",
    "embed_naturals",
    "format_ind",
    "infer_schema",
    "inverse",
    "is_balanced",
    "load_database",
    "load_database_file",
    "load_ind_file",
    "make_database",
    "marginalize",
    "parse_ind",
    "parse_ind_list",
    "parse_monoid",
    "plus_chase",
    "project_permute",
    "proof_to_json",
    "proof_to_text",
    "replay",
    "satisfies",
    "saturate",
    "schema_of",
    "support",
    "table_from_dict",
    "trace_to_json",
    "transitivity",
    "weak_symmetry",
]
