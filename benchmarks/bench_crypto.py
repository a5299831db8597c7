"""Crypto microbenchmarks: the datagram sealing path.

Every SSP datagram is sealed with AES-128-OCB (§2.2), so the cipher sits
on the send/receive hot path right after the terminal diff. These
benchmarks time each layer — OCB seal/unseal at small (typing),
MTU-sized, and large (flood) payloads and a full
:class:`~repro.crypto.session.Session` datagram round-trip — and emit
machine-readable numbers alongside the hot-path suite so crypto
performance PRs carry a recorded trajectory.

The ``ocb_*`` and ``session_*`` scenarios measure the cipher sessions
actually use (:data:`~repro.crypto.session.SessionCipher`: OpenSSL's OCB3
when ``cryptography`` imports, else the reference cipher).
``aes_block`` and the ``ref_ocb_*`` scenarios always measure the
from-scratch reference cipher: ``aes_block`` is one 16-byte block through
the bytes wrapper over the AES kernel, and each ``ref_ocb_*`` call runs a
whole datagram's blocks through that kernel in one pass.

Run via the CLI runner::

    python tools/bench.py            # full run, updates BENCH_hotpath.json
    python tools/bench.py --quick    # CI smoke run

Scenario names are prefixed ``aes_`` / ``ocb_`` / ``ref_`` /
``session_`` so the regression gate can tell crypto numbers from
terminal-path numbers.
"""

from __future__ import annotations

import sys
import time

from repro.crypto.aes import AES128
from repro.crypto.keys import DIRECTION_TO_SERVER, Base64Key, Nonce
from repro.crypto.ocb import OCBCipher
from repro.crypto.session import Message, Session, SessionCipher

#: (full iterations, quick iterations) per scenario; repeats pick the best.
_SCALE = {"full": (300, 20), "quick": (40, 5)}

_KEY = bytes(range(16))

#: Deterministic payload bytes so every run seals identical plaintext.
_PAYLOAD = bytes((7 * i + 13) & 0xFF for i in range(1400))


#: Shortest timed batch: ops far faster than the iteration counts assume
#: (an OpenSSL seal is about a microsecond) repeat until a batch lasts
#: this long, so timer resolution and loop noise stay small beside it.
_MIN_BATCH_S = 0.005


def _best_of(fn, iters: int, repeats: int = 3) -> float:
    """Best per-op seconds over ``repeats`` timed batches of at least
    ``iters`` ops, each lasting at least :data:`_MIN_BATCH_S`."""
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    iters = max(iters, int(_MIN_BATCH_S / max(once, 1e-9)))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


def bench_aes_block(iters: int) -> float:
    cipher = AES128(_KEY)
    block = _PAYLOAD[:16]
    return _best_of(lambda: cipher.encrypt_block(block), iters * 20)


def _nonce_stream():
    """Incrementing single-direction nonces, like a real sender."""
    seq = 0
    while True:
        seq += 1
        yield seq.to_bytes(12, "big")


def _bench_seal(cipher, size: int, iters: int) -> float:
    payload = _PAYLOAD[:size]
    nonces = _nonce_stream()
    return _best_of(lambda: cipher.encrypt(next(nonces), payload, None), iters)


def _bench_unseal(cipher, iters: int) -> float:
    nonce = (1).to_bytes(12, "big")
    sealed = cipher.encrypt(nonce, _PAYLOAD, None)
    return _best_of(lambda: cipher.decrypt(nonce, sealed, None), iters)


def bench_ocb_seal_64(iters: int) -> float:
    return _bench_seal(SessionCipher(_KEY), 64, iters * 4)


def bench_ocb_seal_512(iters: int) -> float:
    return _bench_seal(SessionCipher(_KEY), 512, iters)


def bench_ocb_seal_1400(iters: int) -> float:
    return _bench_seal(SessionCipher(_KEY), 1400, iters)


def bench_ocb_unseal_1400(iters: int) -> float:
    return _bench_unseal(SessionCipher(_KEY), iters)


def bench_ref_ocb_seal_64(iters: int) -> float:
    return _bench_seal(OCBCipher(_KEY), 64, iters * 4)


def bench_ref_ocb_seal_512(iters: int) -> float:
    return _bench_seal(OCBCipher(_KEY), 512, iters)


def bench_ref_ocb_seal_1400(iters: int) -> float:
    return _bench_seal(OCBCipher(_KEY), 1400, iters)


def bench_ref_ocb_unseal_1400(iters: int) -> float:
    return _bench_unseal(OCBCipher(_KEY), iters)


def bench_session_roundtrip(iters: int) -> float:
    """Seal + unseal one MTU-sized datagram through the Session API."""
    session = Session(Base64Key(_KEY))
    payload = _PAYLOAD[:500]
    counter = [0]

    def op() -> None:
        counter[0] += 1
        message = Message(Nonce(DIRECTION_TO_SERVER, counter[0]), payload)
        session.decrypt(session.encrypt(message))

    return _best_of(op, iters)


SCENARIOS = {
    "aes_block": bench_aes_block,
    "ocb_seal_64": bench_ocb_seal_64,
    "ocb_seal_512": bench_ocb_seal_512,
    "ocb_seal_1400": bench_ocb_seal_1400,
    "ocb_unseal_1400": bench_ocb_unseal_1400,
    "ref_ocb_seal_64": bench_ref_ocb_seal_64,
    "ref_ocb_seal_512": bench_ref_ocb_seal_512,
    "ref_ocb_seal_1400": bench_ref_ocb_seal_1400,
    "ref_ocb_unseal_1400": bench_ref_ocb_unseal_1400,
    "session_roundtrip": bench_session_roundtrip,
}


def run_benchmarks(quick: bool = False, verbose: bool = True) -> dict:
    """Run every scenario; returns {"ops": {name: µs/op}, "quick": bool}."""
    iters_full, iters_quick = _SCALE["full"] if not quick else _SCALE["quick"]
    iters = iters_quick if quick else iters_full
    del iters_full, iters_quick
    ops: dict[str, float] = {}
    for name, fn in SCENARIOS.items():
        seconds = fn(iters)
        ops[name] = round(seconds * 1e6, 3)  # µs per op
        if verbose:
            print(f"  {name:<18} {ops[name]:>12.1f} µs/op", file=sys.stderr)
    return {"quick": quick, "ops": ops}


if __name__ == "__main__":
    import json

    print(json.dumps(run_benchmarks("--quick" in sys.argv), indent=2))
