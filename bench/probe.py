"""Host-speed probe that the benchmark's timings are scaled by.

The benchmark runs on a few CPUs of a shared host whose speed changes in
phases that last from seconds to minutes, independently on each CPU: a fixed
CPU loop takes anywhere from 1x to 2x its best time, so raw timings of the
same code drift by more than any useful bound between two sets of runs. The
benchmark therefore pins itself (and the live daemons it starts) to one CPU,
pauses its load between short slices of the timed phase, runs ``probe()``
there, and scales each slice's times by ``REF_PROBE_S`` over the probe time:
every reported time reads as if the host ran the probe in ``REF_PROBE_S``.

The probe is fixed work that imports nothing from kesic, so a change to the
package never changes it, but it does the same kinds of work as the
package's hot paths: rebuilding a few-thousand-entry dict (the general
device's replay window), encoding a thousand-entry JSON state (the ISV
counter file), HMAC-SHA256, AES-GCM and struct packing.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import json
import statistics
import struct
import time

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# Seconds one probe takes on an unloaded 2-vCPU host (Python 3.11). The
# constant only sets the scale of the reported times; both sides of any
# comparison use it.
REF_PROBE_S = 0.0015

_KEY = bytes(range(32))
_AEAD = AESGCM(_KEY)
_NONCE = bytes(12)
_WINDOW = {(i % 4, 10**15 + i * 50_000): 10**15 + i for i in range(3000)}
_STATE = {"devices": {str(10**6 + i): {"co_sync": i, "co_pc": 16 * i} for i in range(1000)}}


def _work() -> int:
    total = 0
    for now in (10**15, 10**15 + 1000, 10**15 + 2000, 10**15 + 3000):
        window = {k: exp for k, exp in _WINDOW.items() if exp >= now}
        total += len(window)
    total += len(json.dumps(_STATE, sort_keys=True))
    tag = b"kesic-probe"
    for i in range(40):
        tag = hmac.new(_KEY, tag, hashlib.sha256).digest()
        box = _AEAD.encrypt(_NONCE, struct.pack(">IQ32s", i, total, tag), None)
        _, _, tag = struct.unpack(">IQ32s", _AEAD.decrypt(_NONCE, box, None))
    return total + tag[0]


def probe() -> float:
    """Seconds that one run of the fixed probe work takes now.

    The work runs once untimed first, so the timed run finds it in the caches
    whatever ran before, and with the collector off, so the size of the
    benchmark's own heap does not reach into the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(probes: list[float], exponent: float = 1.0) -> float:
    """Scale for a time measured next to ``probes``: the reference over their median.

    ``exponent`` below 1 is for work that the host's slow phases stretch less
    than they stretch the probe.
    """
    return (REF_PROBE_S / statistics.median(probes)) ** exponent
