"""Correctness oracles for the benchmark, written without mrwb.gf16 or mrwb.keccak.

The field is GF(2)[x]/(x^4+x+1) by peasant multiplication, and the scheme's
PRNG streams are re-derived with hashlib's SHAKE128, so a fault shared by the
package's own kernels and its tests still shows here.  Every check returns
None when it holds and a one-line description of the first problem when not.
"""

import hashlib
import math

REDUCTION_POLY = 0x13

# domain tags of the scheme's PRNG streams, as the scheme defines them
TAG_SK_EXPAND = 1
TAG_PK_EXPAND = 2
TAG_SELECT = 10

SEED_LEN = 16
SALT_LEN = 32
DIGEST_LEN = 32
HEADER_LEN = 4 + 1 + 1 + 7 * 2  # magic, version, kind, seven u16 parameters
FIELD_PREFIX = 4                # u32 length before every payload field
# header, then the salt and the two challenge digests
PREAMBLE_LEN = HEADER_LEN + FIELD_PREFIX + SALT_LEN + 2 * (FIELD_PREFIX + DIGEST_LEN)

KECCAK_STAGES = frozenset({"keccak_permute", "keccak_squeeze", "keccak_absorb"})
KECCAK_CYCLES = 24


def gf_mul(a: int, b: int) -> int:
    """Peasant multiplication in GF(16)."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a & 0x10:
            a ^= REDUCTION_POLY
    return p


_MUL = [[gf_mul(a, b) for b in range(16)] for a in range(16)]


class _Stream:
    """SHAKE128(tag || salt || seed), read front to back like the scheme's PRNG."""

    def __init__(self, seed: bytes, tag: int, salt: bytes = b""):
        self._input = bytes((tag,)) + salt + seed
        self._out = b""
        self._pos = 0

    def read(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._out):
            self._out = hashlib.shake_128(self._input).digest(max(end, 2 * len(self._out)))
        chunk = self._out[self._pos : end]
        self._pos = end
        return chunk

    def field(self, count: int) -> list:
        # one byte gives two elements, high nibble first; an odd count drops
        # the last low nibble
        out = []
        for b in self.read((count + 1) // 2):
            out.append(b >> 4)
            out.append(b & 0xF)
        return out[:count]


def check_key(pk, sk):
    """The key pair satisfies M0L + sum a_i MiL = (M0R + sum a_i MiR) K."""
    ps = pk.params
    m, n, r, k = ps.m_rows, ps.n_cols, ps.r, ps.k
    lw = n - r
    sk_stream = _Stream(sk.seed_sk, TAG_SK_EXPAND)
    alpha = sk_stream.field(k)
    kmat = sk_stream.field(r * lw)
    if tuple(alpha) != tuple(sk.alpha) or bytes(kmat) != sk.kmat.data:
        return "secret key differs from its seed expansion"
    if sk.public != pk:
        return "secret key carries another public key"
    pk_stream = _Stream(pk.seed_pk, TAG_PK_EXPAND)
    mats = [pk_stream.field(m * n) for _ in range(k)]
    m0_right = pk_stream.field(m * r)
    e = [0] * (m * n)
    for a, mat in zip(alpha, mats):
        row = _MUL[a]
        for idx, v in enumerate(mat):
            e[idx] ^= row[v]
    m0_left = pk.m0_left.data
    for i in range(m):
        for j in range(lw):
            rhs = 0
            for t in range(r):
                rhs ^= _MUL[m0_right[i * r + t] ^ e[i * n + lw + t]][kmat[t * lw + j]]
            if m0_left[i * lw + j] ^ e[i * n + j] != rhs:
                return f"key relation fails at ({i}, {j})"
    return None


def unopened_parties(h2: bytes, ps) -> list:
    """Party left unopened in each round, rejection-sampled from SHAKE128(10 || h2)."""
    stream = _Stream(h2, TAG_SELECT)
    limit = (256 // ps.n_parties) * ps.n_parties
    picks = []
    while len(picks) < ps.tau:
        b = stream.read(1)[0]
        if b < limit:
            picks.append(b % ps.n_parties)
    return picks


def check_signature_size(sig, blob_len: int):
    """Serialized size matches the format from the parameters and aux placement."""
    ps = sig.params
    lw = ps.n_cols - ps.r
    picks = unopened_parties(sig.h2, ps)
    size = PREAMBLE_LEN
    for pick, rnd in zip(picks, sig.rounds):
        if (rnd.aux is None) != (pick == ps.n_parties - 1):
            return "aux corrections where the unopened party does not need them"
        size += FIELD_PREFIX + (ps.n_parties - 1) * SEED_LEN
        size += FIELD_PREFIX + DIGEST_LEN
        size += FIELD_PREFIX + ps.s * ps.r
        if rnd.aux is not None:
            size += 3 * FIELD_PREFIX + ps.k + ps.r * lw + ps.s * lw
    if len(sig.rounds) != ps.tau or size != blob_len:
        return f"signature is {blob_len} bytes, the format gives {size}"
    return None


def round0_offsets(ps):
    """Byte offsets of round 0's first seed and its S share in a signature."""
    seeds = PREAMBLE_LEN + FIELD_PREFIX
    s_share = seeds + (ps.n_parties - 1) * SEED_LEN + FIELD_PREFIX + DIGEST_LEN + FIELD_PREFIX
    return seeds, s_share


# ----------------------------------------------------------- design flow

def _total(e, prof) -> float:
    # the same float operations dse.total_runtime performs, so ties compare equal
    t = prof.sign_weight * e.t_sign_ms + prof.open_count * e.t_open_ms
    if prof.keygen_weight:
        t += prof.keygen_weight * e.t_keygen_ms
    return t


def best_pr(entries, prof, limits: dict):
    """Name of the fastest entry within every limit, by a full scan."""
    best = None
    for e in entries:
        if any(getattr(e, dim) > lim for dim, lim in limits.items()):
            continue
        key = (_total(e, prof), e.kluts, e.brams, e.name)
        if best is None or key < best:
            best = key
    return None if best is None else best[-1]


def best_pt(entries, prof, cap: float, objective: str):
    """Name of the cheapest entry meeting the runtime cap, by a full scan."""
    best = None
    for e in entries:
        t = _total(e, prof)
        if t > cap:
            continue
        key = (getattr(e, objective), t, e.name)
        if best is None or key < best:
            best = key
    return None if best is None else best[-1]


def check_front(entries, prof, resource: str, front):
    """The claimed front is exactly the non-dominated set, in runtime order.

    Dominance is a strict partial order, so a dominated entry is dominated by
    some non-dominated one: scanning every entry against the front suffices.
    """
    pts = [(_total(e, prof), getattr(e, resource), e.name) for e in entries]
    claimed = [(p.total_ms, p.resource_value, p.entry.name) for p in front]

    def dominates(a, b):
        return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])

    if claimed != sorted(claimed):
        return f"{resource} front is not in runtime order"
    on_front = set(claimed)
    if not on_front <= set(pts):
        return f"{resource} front holds an entry outside the library"
    for p in pts:
        if p in on_front:
            if any(dominates(q, p) for q in pts):
                return f"{resource} front holds dominated entry {p[2]}"
        elif not any(dominates(q, p) for q in claimed):
            return f"{resource} front misses entry {p[2]}"
    return None


def check_prediction(pred, comp, ps, prof, cfg, keccak_model):
    """hw time = engine calls * (ceil(k*n/P) + latency) + 24 * Keccak calls."""
    clock = comp.clock_mhz if comp.clock_mhz is not None else cfg.clock_mhz
    engine = -(-ps.k * ps.n_cols // cfg.parallelism) + cfg.pipeline_latency
    engine_calls = {
        "keygen": 1,
        "sign": ps.tau * ps.n_parties,
        "open": ps.tau * (ps.n_parties - 1),
    }
    for op, calls in engine_calls.items():
        cycles = 0.0
        if "scalar_mat_sum" in comp.accel_stages:
            cycles += calls * engine
        if KECCAK_STAGES <= comp.accel_stages:
            cycles += KECCAK_CYCLES * keccak_model(ps, op)
        hw_ms = cycles / (clock * 1000.0)
        stages = prof.stages[op]
        sw = sum(mean for mean, _ in stages.values())
        moved = sum(stages[s][0] for s in comp.accel_stages)
        hidden = sum(stages[s][0] for s in comp.overlap_stages)
        t = sw - moved + max(0.0, hw_ms - hidden)
        d = pred.details[op]
        if not math.isclose(d["hw_ms"], hw_ms, rel_tol=1e-9, abs_tol=1e-12):
            return f"{comp.name} {op}: hw_ms {d['hw_ms']} against {hw_ms}"
        if not math.isclose(d["t_ms"], t, rel_tol=1e-9, abs_tol=1e-9):
            return f"{comp.name} {op}: t_ms {d['t_ms']} against {t}"
    return None
