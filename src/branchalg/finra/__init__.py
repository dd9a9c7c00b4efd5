from .atoms import (
    AtomStructure,
    AtomStructureError,
    format_structure,
    from_cycles,
    make_proper_ra,
    parse_structure,
    verify_axioms,
)
from .enumeration import (
    SIGNATURES,
    STRETCH_SIGNATURES,
    TABLE_TOTALS,
    UnsupportedSignatureError,
    enumerate_integral,
    normalize_signature,
)
from .jlm import (
    FORMULAS,
    JlmRecord,
    check_jlm,
    profile_structures,
    profile_tsv,
)
from .represent import (
    NotTabular,
    PartialRep,
    StageReport,
    build_stage_rep,
    extend_comp,
    extend_join,
    is_tabular,
    tabular_witness,
)
