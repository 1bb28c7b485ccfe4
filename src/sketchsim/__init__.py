"""Space-efficient multiset similarity estimation with counting sketches.

Two devices each turn a local multiset (say, song -> play count) into a
Counting Bloom Filter or Count-Min Sketch, exchange one envelope each,
and score their similarity from counter vectors alone. A Dice estimate
equals or overestimates the exact Dice score, never undershoots it; a
cosine estimate carries no such one-sided guarantee.
"""

from .multiset import (
    COUNT_MAX,
    Multiset,
    UndefinedSimilarityError,
    cosine,
    dice,
    intersection_cardinality,
)
from .hashing import (
    derive_row_seed,
    digest_pair,
    fnv1a64,
)
from .sketches import (
    COUNTER_MAX,
    BloomFilter,
    CountMinSketch,
    CountingBloomFilter,
    SketchParams,
    cms_to_cbf,
)
from .metrics import (
    IncompatibleSketchError,
    cbf_cosine,
    cbf_dice,
    check_witnesses,
    cms_cosine,
    cms_dice,
    witness_of,
)
from .datasets import (
    GenerationError,
    TripletParseError,
    companion_sharing,
    generate_synthetic,
    load_corpus,
    random_multiset,
    read_profiles,
    write_corpus,
    write_profiles,
)
from .experiments import (
    ComparisonResult,
    GridSpec,
    PairFailure,
    ThresholdReport,
    rmse,
    run_grid,
    run_pairwise,
    threshold_report,
    write_grid_csv,
    write_threshold_csv,
)
from .wire import (
    BadMagicError,
    HeaderConsistencyError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    WireFormatError,
    decode,
    decode_header,
    encode,
)

__version__ = "0.1.0"
