"""Self-indexing grayscale image retrieval.

Images carry their own search metadata: a pyramidal local-binary-pattern
texture descriptor, a patient record and a file locator are embedded as a
reversible difference-expansion watermark, so the collection can be
searched by example or by patient id and every original restored exactly.
"""

from . import errors
from .descriptor import compute_descriptor, descriptor_distance
from .errors import LbpmarkdexError
from .evaluation import (
    EvalSets,
    class_mean_pr,
    precision_recall,
    render_pr_csv,
    write_pr_csv,
)
from .image_io import GrayImage, load_pgm, read_pgm, save_pgm, write_pgm
from .lbp import lbp_code, lbp_histogram, lbp_map
from .payload import PatientRecord, Payload, decode_payload, encode_payload
from .pyramid import build_pyramid, reduce_once
from .retrieval import (
    Index,
    IndexEntry,
    RankedResult,
    RelinkReport,
    index_add,
    query_by_image,
    query_by_patient_id,
    read_stored,
    relink,
    restore_stored,
)
from .watermark import (
    DiffPair,
    ZoneClass,
    capacity,
    classify,
    embed,
    extract,
    forward_transform,
    inverse_transform,
)

__version__ = "0.1.0"

__all__ = [
    "DiffPair",
    "EvalSets",
    "GrayImage",
    "Index",
    "IndexEntry",
    "LbpmarkdexError",
    "PatientRecord",
    "Payload",
    "RankedResult",
    "RelinkReport",
    "ZoneClass",
    "build_pyramid",
    "capacity",
    "class_mean_pr",
    "classify",
    "compute_descriptor",
    "decode_payload",
    "descriptor_distance",
    "embed",
    "encode_payload",
    "errors",
    "extract",
    "forward_transform",
    "index_add",
    "inverse_transform",
    "lbp_code",
    "lbp_histogram",
    "lbp_map",
    "load_pgm",
    "precision_recall",
    "query_by_image",
    "query_by_patient_id",
    "read_pgm",
    "read_stored",
    "reduce_once",
    "relink",
    "render_pr_csv",
    "restore_stored",
    "save_pgm",
    "write_pgm",
    "write_pr_csv",
]
