"""The benchmark's three workloads.

Each workload's constructor brings its keys to the ready state from the
seed; that is the set-up, and `setup_s` times it.  `make_inputs` then builds
the rest of the inputs from the same seed, untimed.  `run_round` performs
one whole round of the workload's operations, the same operations in the
same order every round, and checks every output against the oracles.
A closed loop with one client: the next operation starts when the previous
one has returned.
"""

import random
import statistics
import sys
import time
from importlib import resources

from mrwb import accel, dse, mpcith, profiler, serialization as ser

import oracle

clock = time.perf_counter


class Recorder:
    """Best-of-rounds timings (seconds) by name, and attempted/failed counts.

    Every round times the same operations in the same order, so the k-th
    time recorded under a name in one round belongs to the same operation
    as the k-th in every other round.  `best[name][k]` keeps its fastest
    repeat: on a shared host, other tenants slow whole stretches of a run by
    20-70 %, and best-of-repeats (as in timeit) drops those stretches while
    the median over a round's operations keeps the workload's mix.
    """

    def __init__(self):
        self.best = {}
        self._position = {}
        self.attempted = 0
        self.failed = 0

    def new_round(self):
        self._position = {}

    def add(self, name: str, seconds: float):
        k = self._position.get(name, 0)
        self._position[name] = k + 1
        best = self.best.setdefault(name, [])
        if k == len(best):
            best.append(seconds)
        elif seconds < best[k]:
            best[k] = seconds

    def run(self, op, *args):
        self.attempted += 1
        try:
            problem = op(*args)
        except Exception as exc:  # an operation that raises has failed; keep going
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"operation failed: {problem}", file=sys.stderr)


def _first(*problems):
    return next((p for p in problems if p), None)


def _reserialize(blob: bytes, parsed, serialize):
    if serialize(parsed) != blob:
        return "parse then serialize does not give the input bytes back"
    return None


def op_seconds(best: dict) -> float:
    """The mean operation, so that every operation of the mix weighs by its cost.

    A design-flow pass, the workload's one operation, is the sum of its stages.
    """
    if "stage" in best:
        return sum(best["stage"])
    return statistics.fmean(best["op"])


class DeskRoundtrip:
    """One long-lived desk key; each message goes sign -> serialize -> parse -> open."""

    N_MESSAGES = 8  # a short round, so that each message repeats many times in a run

    def __init__(self, seed: int):
        self.rng = random.Random(f"roundtrip:desk:{seed}")
        self.ps = mpcith.PRESETS["desk"]
        self.pk_signer, self.sk = mpcith.keygen(self.ps, self.rng.randbytes(32))
        self.pk = ser.parse_public_key(ser.serialize_public_key(self.pk_signer))
        mpcith.public_matrices(self.pk)
        mpcith.public_key_digest(self.pk)

    def make_inputs(self):
        rng = self.rng
        self.inputs = [
            (rng.randbytes(rng.randrange(257)), rng.randbytes(32)) for _ in range(self.N_MESSAGES)
        ]
        self.first_blobs = {}  # input index -> signature of the first round

    def run_round(self, rec: Recorder):
        for i in range(len(self.inputs)):
            rec.run(self._roundtrip, rec, i)

    def _roundtrip(self, rec, i):
        message, randomness = self.inputs[i]
        t0 = clock()
        sig = mpcith.sign(self.sk, message, randomness)
        t1 = clock()
        blob = ser.serialize_signature(sig)
        parsed = ser.parse_signature(blob)
        t2 = clock()
        accepted = mpcith.open(self.pk, message, parsed)
        t3 = clock()
        rec.add("sign", t1 - t0)
        rec.add("open", t3 - t2)
        rec.add("op", t3 - t0)
        return _first(
            None if self.first_blobs.setdefault(i, blob) == blob
            else "signing the same input twice gave different bytes",
            None if accepted else "an honest signature was rejected",
            _reserialize(blob, parsed, ser.serialize_signature),
            oracle.check_signature_size(parsed, len(blob)),
        )

    def final_checks(self):
        return [oracle.check_key(self.pk_signer, self.sk)]


TAMPER_KINDS = ("wrong_message", "flipped_seed", "flipped_s_share", "truncated", "garbage")


class PkiVerify:
    """A verifier for many desk signers with skewed popularity.

    Each round the signers sign some of their messages again, then the
    verifier verifies the stream; each starts with empty key caches, as a
    separate process would.  Each verification parses the public key and the
    signature from bytes.  Every key's first use in the stream is a valid
    signature; a fixed share of the stream is tampered and must be rejected.
    """

    N_KEYS = 48                # three times the 16 entries public_matrices caches
    ROUND = 200                # verifications per round
    TAMPERED_PER_KIND = 8      # 40 of 200 (20 %) tampered, 8 of each kind
    ZIPF_S = 1.1               # key j is drawn with weight 1 / (j + 1) ** ZIPF_S
    MESSAGES_PER_KEY = 2
    SIGNS_PER_ROUND = 24       # re-signed each round; fewer signs, more rounds per run

    def __init__(self, seed: int):
        self.rng = random.Random(f"pki-verify:{seed}")
        ps = self.ps = mpcith.PRESETS["desk"]
        self.keys = [mpcith.keygen(ps, self.rng.randbytes(32)) for _ in range(self.N_KEYS)]
        for pk, _ in self.keys:
            mpcith.public_matrices(pk)
            mpcith.public_key_digest(pk)

    def make_inputs(self):
        rng, ps = self.rng, self.ps
        self.pk_bytes = [ser.serialize_public_key(pk) for pk, _ in self.keys]

        draws = list(range(self.N_KEYS))
        weights = [1.0 / (j + 1) ** self.ZIPF_S for j in range(self.N_KEYS)]
        draws += rng.choices(range(self.N_KEYS), weights, k=self.ROUND - self.N_KEYS)
        rng.shuffle(draws)
        seen = set()
        repeats = []
        for pos, j in enumerate(draws):
            if j in seen:
                repeats.append(pos)
            seen.add(j)
        kinds = [k for k in TAMPER_KINDS for _ in range(self.TAMPERED_PER_KIND)]
        tampered = dict(zip(rng.sample(repeats, len(kinds)), kinds))

        self.signed = {}  # (key, message index) -> (message, randomness, blob)
        seed_off, s_off = oracle.round0_offsets(ps)
        self.stream = []
        for pos, j in enumerate(draws):
            m = rng.randrange(self.MESSAGES_PER_KEY)
            if (j, m) not in self.signed:
                message, randomness = rng.randbytes(rng.randrange(1, 129)), rng.randbytes(32)
                sig = mpcith.sign(self.keys[j][1], message, randomness)
                self.signed[j, m] = (message, randomness, ser.serialize_signature(sig))
            message, _, blob = self.signed[j, m]
            kind = tampered.get(pos)
            if kind == "wrong_message":
                message = message + b"."
            elif kind == "flipped_seed":
                blob = _flip(blob, seed_off + rng.randrange(oracle.SEED_LEN))
            elif kind == "flipped_s_share":
                blob = _flip(blob, s_off + rng.randrange(ps.s * ps.r))
            elif kind == "truncated":
                blob = blob[: rng.randrange(len(blob))]
            elif kind == "garbage":
                blob = rng.randbytes(len(blob))
            self.stream.append((j, message, blob, kind is None))

    def run_round(self, rec: Recorder):
        _clear_key_caches()
        for (j, _), signed in list(self.signed.items())[: self.SIGNS_PER_ROUND]:
            rec.run(self._sign, rec, j, *signed)
        _clear_key_caches()
        for entry in self.stream:
            rec.run(self._verify, rec, *entry)

    def _sign(self, rec, j, message, randomness, blob):
        t0 = clock()
        sig = mpcith.sign(self.keys[j][1], message, randomness)
        rec.add("sign", clock() - t0)
        if ser.serialize_signature(sig) != blob:
            return "signing the same input twice gave different bytes"
        return None

    def _verify(self, rec, j, message, blob, valid):
        t0 = clock()
        pk = ser.parse_public_key(self.pk_bytes[j])
        try:
            sig = ser.parse_signature(blob)
        except ser.FormatError:
            sig = None
        misses = mpcith.public_matrices.cache_info().misses
        t1 = clock()
        accepted = sig is not None and mpcith.open(pk, message, sig)
        t2 = clock()
        rec.add("op", t2 - t0)
        if valid and mpcith.public_matrices.cache_info().misses == misses:
            rec.add("open", t2 - t1)  # a warm-key open
        if accepted != valid:
            return "an honest signature was rejected" if valid else "a tampered input was accepted"
        return _first(
            _reserialize(self.pk_bytes[j], pk, ser.serialize_public_key),
            sig and _reserialize(blob, sig, ser.serialize_signature),
            sig and valid and oracle.check_signature_size(sig, len(blob)),
        )

    def final_checks(self):
        return [oracle.check_key(pk, sk) for pk, sk in self.keys]


def _clear_key_caches():
    # as in a fresh process, so that every round starts from the same cache state
    mpcith.public_matrices.cache_clear()
    mpcith.public_key_digest.cache_clear()


def _flip(blob: bytes, pos: int) -> bytes:
    # xor 1 keeps a GF(16) entry in range, so the blob still parses
    return blob[:pos] + bytes((blob[pos] ^ 1,)) + blob[pos + 1 :]


def bundled_data(name: str) -> str:
    return resources.files("mrwb.data").joinpath(name).read_text()


LIB_ENTRIES = 4000
LIB_FIELDS = ("t_keygen_ms", "t_sign_ms", "t_open_ms", "kluts", "kffs", "brams")


def generate_library(rng: random.Random):
    """INI text of LIB_ENTRIES cuts spread uniformly over the bundled library's ranges.

    Values keep two decimals like the bundled file, so runtime and resource
    ties occur and the solvers' tie-breaks are exercised.  Returns the text
    and the (name, values) rows it encodes.
    """
    bundled = ser.parse_library_config(bundled_data("table3_zynq7000.ini")).entries
    ranges = [
        (min(getattr(e, f) for e in bundled), max(getattr(e, f) for e in bundled))
        for f in LIB_FIELDS
    ]
    rows = []
    parts = []
    for i in range(LIB_ENTRIES):
        values = tuple(round(rng.uniform(lo, hi), 2) for lo, hi in ranges)
        rows.append((f"gen {i}", values))
        parts.append(f"[cut:gen {i}]\n")
        parts.extend(f"{f} = {v!r}\n" for f, v in zip(LIB_FIELDS, values))
        parts.append("\n")
    return "".join(parts), rows


class DesignFlow:
    """The paper's pipeline: profile -> predict -> parse a cut library -> DSE.

    One operation is one whole pass.  The pass starts with the plain
    (uninstrumented) desk sign/open that the profile and the predicted cuts
    are compared against.  Its time is the sum of its seven stages' fastest
    repeats: the stages are shorter than the pass, so more of them fall in
    a stretch where other tenants leave the host alone.
    """

    BASELINE_INPUTS = 3
    PROFILE_RUNS = 10
    PARALLELISM = (1, 2, 4, 8, 16, 32, 64)
    CLOCKS_MHZ = (50.0, 100.0, 125.0, 200.0, 250.0)
    KLUT_LIMITS = (10.0, 20.0, 30.0, None)
    BRAM_LIMITS = (15.0, 30.0, 60.0, None)
    CAPS_MS = (20.0, 50.0, 100.0, 200.0, 400.0)
    USAGE = dse.PkiProfile(sign_weight=1.0, open_count=1)

    def __init__(self, seed: int):
        self.rng = random.Random(f"design-flow:{seed}")
        self.ps = mpcith.PRESETS["desk"]
        self.pk, self.sk = mpcith.keygen(self.ps, self.rng.randbytes(32))
        mpcith.public_matrices(self.pk)
        mpcith.public_key_digest(self.pk)

    def make_inputs(self):
        rng = self.rng
        self.baseline = [(rng.randbytes(64), rng.randbytes(32)) for _ in range(self.BASELINE_INPUTS)]
        self.baseline_sigs = {}  # input index -> signature of the first pass
        self.profile_seed = rng.randbytes(16)
        self.compositions = ser.parse_library_config(bundled_data("cut_compositions.ini")).compositions
        self.lib_text, self.lib_rows = generate_library(rng)
        self.budgets = [
            {dim: lim for dim, lim in (("kluts", kl), ("brams", br)) if lim is not None}
            for kl in self.KLUT_LIMITS
            for br in self.BRAM_LIMITS
        ]
        self.expected_dse = None  # answers of the first pass, checked by full scans

    def run_round(self, rec: Recorder):
        rec.run(self._pass, rec)

    def _pass(self, rec):
        marks = [clock()]
        baseline_ok = True
        for i, (message, randomness) in enumerate(self.baseline):
            t0 = clock()
            sig = mpcith.sign(self.sk, message, randomness)
            t1 = clock()
            accepted = mpcith.open(self.pk, message, sig)
            rec.add("sign", t1 - t0)
            rec.add("open", clock() - t1)
            baseline_ok &= accepted and self.baseline_sigs.setdefault(i, sig) == sig
        marks.append(clock())

        prof = profiler.profile(self.ps, runs=self.PROFILE_RUNS, seed=self.profile_seed)
        reloaded = profiler.load_profile_csv(profiler.emit_profile_csv(prof))
        marks.append(clock())

        predictions = []
        for comp in self.compositions.values():
            for clock_mhz in self.CLOCKS_MHZ:
                for p in self.PARALLELISM:
                    cfg = accel.AccelConfig(parallelism=p, clock_mhz=clock_mhz)
                    pred = accel.predict_cut_runtime(comp, self.ps, prof, cfg)
                    predictions.append((comp, cfg, pred))
        marks.append(clock())

        lib = ser.parse_library_config(self.lib_text).block_library()
        marks.append(clock())
        answers = [
            _winner(dse.solve_pr(lib, self.USAGE, dse.ResourceBudget(
                **{"max_" + dim: lim for dim, lim in limits.items()})))
            for limits in self.budgets
        ]
        marks.append(clock())
        answers += [
            _winner(dse.solve_pt(lib, self.USAGE, cap, objective))
            for cap in self.CAPS_MS
            for objective in dse.RESOURCE_DIMS
        ]
        marks.append(clock())
        fronts = [dse.pareto_front(lib, self.USAGE, res) for res in dse.RESOURCE_DIMS]
        marks.append(clock())
        for start, end in zip(marks, marks[1:]):
            rec.add("stage", end - start)

        if not baseline_ok:
            return "baseline signature rejected or not deterministic"
        if reloaded.stages != prof.stages:
            return "profile CSV round trip changed the profile"
        problem = self._check_predictions(prof, predictions)
        if problem:
            return problem
        if [(e.name, tuple(getattr(e, f) for f in LIB_FIELDS)) for e in lib.entries] != self.lib_rows:
            return "parsed library differs from the generated one"
        answers += [tuple(p.entry.name for p in front) for front in fronts]
        if self.expected_dse is None:
            problem = self._check_dse(lib, answers, fronts)
            if problem:
                return problem
            self.expected_dse = answers
        elif answers != self.expected_dse:
            return "DSE answers changed between passes over the same library"
        return None

    def _check_predictions(self, prof, predictions):
        last_t = {}
        for comp, cfg, pred in predictions:
            problem = oracle.check_prediction(
                pred, comp, self.ps, prof, cfg, accel.keccak_invocations
            )
            if problem:
                return problem
            for op in accel.OPERATIONS:
                key = (comp.name, cfg.clock_mhz, op)
                t = pred.time_ms(op)
                if t > last_t.get(key, t):
                    return f"{comp.name} {op}: t_ms grows with parallelism"
                last_t[key] = t
        return None

    def _check_dse(self, lib, answers, fronts):
        expected = [oracle.best_pr(lib.entries, self.USAGE, limits) for limits in self.budgets]
        expected += [
            oracle.best_pt(lib.entries, self.USAGE, cap, objective)
            for cap in self.CAPS_MS
            for objective in dse.RESOURCE_DIMS
        ]
        if answers[: len(expected)] != expected:
            return "a DSE winner differs from the full scan"
        for res, front in zip(dse.RESOURCE_DIMS, fronts):
            problem = oracle.check_front(lib.entries, self.USAGE, res, front)
            if problem:
                return problem
        return None

    def final_checks(self):
        return [oracle.check_key(self.pk, self.sk)]


def _winner(report):
    return report.winner.name if report.winner is not None else None


WORKLOADS = {
    "desk-roundtrip": DeskRoundtrip,
    "pki-verify": PkiVerify,
    "design-flow": DesignFlow,
}
