"""Storage substrate: persistent XOnto-DIL stores (SQL Server stand-in)
plus the resilience layer (error taxonomy, integrity manifests, retry
and fault-injection decorators)."""

from .errors import (CorruptIndexError, IncompatibleIndexError,
                     StorageError, TransientStorageError)
from .faults import FaultInjectingStore
from .interface import EncodedPosting, IndexStore, canonical_dump
from .manifest import (BUILD_COMPLETE_KEY, CHECKSUM_KEY_PREFIX,
                       CORPUS_FINGERPRINT_KEY, ManifestReport,
                       atomic_sqlite_build, corpus_fingerprint,
                       finalize_manifest, manifest_strategies,
                       mark_build_started, postings_checksum,
                       require_complete, store_checksum, verify_manifest)
from .codec import (PostingBlock, UnencodablePostings, decode_postings,
                    encode_postings)
from .memory_store import MemoryStore
from .mmap_store import (MmapStore, MmapStoreWriter, atomic_mmap_build,
                         open_read_store, sniff_store_format,
                         write_mmap_store)
from .retrying import RetryingStore
from .segments import (CATALOG_KEY, SegmentCatalog, SegmentRecord,
                       SegmentView, load_catalog, save_catalog,
                       segment_namespace, segment_view)
from .sqlite_store import SQLiteStore

__all__ = [
    "BUILD_COMPLETE_KEY", "CATALOG_KEY", "CHECKSUM_KEY_PREFIX",
    "CORPUS_FINGERPRINT_KEY", "CorruptIndexError", "EncodedPosting",
    "FaultInjectingStore", "IncompatibleIndexError", "IndexStore",
    "ManifestReport", "MemoryStore", "MmapStore", "MmapStoreWriter",
    "PostingBlock", "RetryingStore",
    "SQLiteStore", "SegmentCatalog", "SegmentRecord", "SegmentView",
    "StorageError", "TransientStorageError", "UnencodablePostings",
    "atomic_mmap_build", "atomic_sqlite_build", "canonical_dump",
    "corpus_fingerprint", "decode_postings", "encode_postings",
    "finalize_manifest", "load_catalog", "manifest_strategies",
    "mark_build_started", "open_read_store", "postings_checksum",
    "require_complete", "save_catalog", "segment_namespace",
    "segment_view", "sniff_store_format", "store_checksum",
    "verify_manifest", "write_mmap_store",
]
