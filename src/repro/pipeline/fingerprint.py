"""Content-addressed artifact fingerprints.

Every pipeline stage output is identified by a fingerprint: the SHA-256
of a canonical-JSON description of *everything the stage result depends
on* — benchmark source text, the SpD heuristic knobs, the grafting
configuration, the machine's latency table and issue width, and a
pipeline version salt.  Two runs with identical inputs therefore share
cache entries; changing any knob (or bumping :data:`PIPELINE_VERSION`
after a behavioural change to the toolchain) changes every downstream
fingerprint and the old entries are simply never looked up again.

Stage fingerprints chain: the profile fingerprint embeds the compile
fingerprint, the view fingerprint embeds both, and the timing
fingerprint embeds the view fingerprint plus the machine.  A change to
the source text thus invalidates all four stages at once.  The
per-stage payloads are assembled by the fingerprint methods of
:class:`~repro.pipeline.core.PipelineConfig`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

__all__ = ["PIPELINE_VERSION", "fingerprint"]

#: Bump whenever a toolchain change alters any stage's output or the
#: pickled artifact layout: old on-disk entries become unreachable (and
#: are discarded on sight by the store's version check).
#: 2: DisambiguationResult grew the ``pass_stats`` field (pass-manager
#: refactor); version-1 view artifacts lack it.
#: 3: execution-engine refactor — profile/view fingerprints gained the
#: ``engine`` key, and pickled LatencyTable instances grew the cached
#: category lookup table older payloads lack.
PIPELINE_VERSION = 3


def fingerprint(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of *payload* + the version salt."""
    body = {"pipeline_version": PIPELINE_VERSION, **payload}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
