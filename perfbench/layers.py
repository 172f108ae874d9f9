"""Per-layer metrics: layer probes, exact kernel call counts, and a cProfile pass.

Probes time one layer's public functions from outside, on inputs drawn from
the seed in the shapes the workloads use.  Call counts come from cProfile,
a stdlib hook that changes no program code, and sit beside the analytic
workload model in mrwb.accel.  End-to-end metrics never come from here.
"""

import cProfile
import os
import pstats
import random
import statistics

from mrwb import accel, dse, gf16, keccak, mpcith, profiler, serialization as ser
from mrwb.gf16 import Matrix
from mrwb.mpcith import PartyShares

import workloads
from workloads import clock

PRESET_NAMES = ("desk", "ia-like")
TRACED_MODULES = ("gf16", "keccak", "mpcith", "serialization")
COUNTED = {"keccak_f1600": "keccak.py", "scalar_mat_sum": "gf16.py"}
COUNT_MESSAGE = b"workload"
SIGNATURES_COUNTED = {"desk": 4, "ia-like": 1}


def _median_time(fn, budget_s: float = 0.25, min_reps: int = 5) -> float:
    samples = []
    start = clock()
    while len(samples) < min_reps or clock() - start < budget_s:
        t0 = clock()
        fn()
        samples.append(clock() - t0)
    return statistics.median(samples)


def _matrix(rng, rows, cols) -> Matrix:
    return Matrix(rows, cols, bytes(rng.randrange(16) for _ in range(rows * cols)))


def _field(rng, n) -> tuple:
    return tuple(rng.randrange(16) for _ in range(n))


def probe_metrics(seed: int) -> dict:
    rng = random.Random(f"layers:{seed}")
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    keys = {}
    for name in PRESET_NAMES:
        ps = mpcith.PRESETS[name]
        randomness = rng.randbytes(32)
        put(f"mpcith.keygen_ms.{name}",
            1e3 * _median_time(lambda: mpcith.keygen(ps, randomness)), "ms")
        pk, sk = mpcith.keygen(ps, randomness)

        def cold_expand():
            mpcith.public_matrices.cache_clear()
            mpcith.public_matrices(pk)

        put(f"mpcith.public_matrices_ms.{name}", 1e3 * _median_time(cold_expand), "ms")
        mats, m0_full = mpcith.public_matrices(pk)
        lw = ps.cols_left
        parties = [
            PartyShares(rng.randbytes(16), _field(rng, ps.k), _matrix(rng, ps.r, lw),
                        _matrix(rng, ps.s, ps.r), _matrix(rng, ps.s, lw))
            for _ in range(ps.n_parties)
        ]
        proj = _matrix(rng, ps.s, ps.m_rows)
        put(f"mpcith.phase3_mpc_round_ms.{name}", 1e3 * _median_time(
            lambda: mpcith.phase3_mpc_round(parties, mats, m0_full, ps.r, proj)), "ms")
        put(f"serialization.pk_bytes.{name}", len(ser.serialize_public_key(pk)), "bytes")
        keys[name] = (pk, sk, mats)

    # the scalar_mat_sum-heavy round trip; its 1 s operations are too long
    # to time steadily on a shared host, so it is a probe and not a workload
    pk, sk, _ = keys["ia-like"]
    message, randomness = rng.randbytes(64), rng.randbytes(32)
    sig = mpcith.sign(sk, message, randomness)
    put("mpcith.sign_ms.ia-like",
        1e3 * _median_time(lambda: mpcith.sign(sk, message, randomness), min_reps=3), "ms")
    put("mpcith.open_ms.ia-like",
        1e3 * _median_time(lambda: mpcith.open(pk, message, sig), min_reps=3), "ms")

    desk = mpcith.PRESETS["desk"]
    pk, sk, mats = keys["desk"]
    lanes = [rng.getrandbits(64) for _ in range(25)]
    put("keccak.f1600_us", 1e6 * _median_time(lambda: keccak.keccak_f1600(lanes)), "us")
    prng_seed = rng.randbytes(16)
    counts = [desk.m_rows * desk.n_cols] * desk.k + [desk.m_rows * desk.r]

    def expand():
        stream = keccak.Prng(prng_seed, tag=mpcith.D_PK_EXPAND)
        for c in counts:
            stream.field_bytes(c)

    nbytes = sum((c + 1) // 2 for c in counts)
    put("keccak.prng_MBps", nbytes / _median_time(expand) / 1e6, "MB/s")
    chunks = [rng.randbytes(32), b"\0\0", b"\0\0", rng.randbytes(16)]
    put("keccak.hash_digest_us",
        1e6 * _median_time(lambda: keccak.hash_digest(mpcith.D_COMMIT, chunks)), "us")

    alpha15 = _field(rng, desk.k)
    put("gf16.scalar_mat_sum_k15_us",
        1e6 * _median_time(lambda: gf16.scalar_mat_sum(alpha15, mats)), "us")
    mats78 = keys["ia-like"][2]
    alpha78 = _field(rng, len(mats78))
    put("gf16.scalar_mat_sum_k78_us",
        1e6 * _median_time(lambda: gf16.scalar_mat_sum(alpha78, mats78)), "us")
    proj, e = _matrix(rng, desk.s, desk.m_rows), _matrix(rng, desk.m_rows, desk.n_cols)
    put("gf16.mat_mul_proj_us", 1e6 * _median_time(lambda: gf16.mat_mul(proj, e)), "us")
    s_open, kmat = _matrix(rng, desk.s, desk.r), _matrix(rng, desk.r, desk.cols_left)
    put("gf16.mat_mul_sk_us", 1e6 * _median_time(lambda: gf16.mat_mul(s_open, kmat)), "us")

    sig = mpcith.sign(sk, rng.randbytes(64), rng.randbytes(32))
    blob = ser.serialize_signature(sig)
    pk_blob = ser.serialize_public_key(pk)
    put("serialization.serialize_signature_us",
        1e6 * _median_time(lambda: ser.serialize_signature(sig)), "us")
    put("serialization.parse_signature_us",
        1e6 * _median_time(lambda: ser.parse_signature(blob)), "us")
    put("serialization.parse_public_key_us",
        1e6 * _median_time(lambda: ser.parse_public_key(pk_blob)), "us")
    lib_text, _ = workloads.generate_library(rng)
    put("serialization.parse_library_config_ms",
        1e3 * _median_time(lambda: ser.parse_library_config(lib_text), min_reps=3), "ms")

    lib = ser.parse_library_config(lib_text).block_library()
    usage = workloads.DesignFlow.USAGE
    budget = dse.ResourceBudget(max_kluts=20.0, max_brams=30.0)
    put("dse.solve_pr_ms", 1e3 * _median_time(lambda: dse.solve_pr(lib, usage, budget)), "ms")
    put("dse.solve_pt_ms",
        1e3 * _median_time(lambda: dse.solve_pt(lib, usage, 100.0, "kluts")), "ms")
    put("dse.pareto_front_ms",
        1e3 * _median_time(lambda: dse.pareto_front(lib, usage, "kluts")), "ms")

    comps = ser.parse_library_config(workloads.bundled_data("cut_compositions.ini")).compositions
    sw = profiler.load_profile_csv(workloads.bundled_data("table1_sw_profile.csv"))
    cut = comps["Cut 1"]
    put("accel.predict_cut_runtime_us",
        1e6 * _median_time(lambda: accel.predict_cut_runtime(cut, desk, sw)), "us")
    packed = [accel.pack(m) for m in mats78]
    put("accel.accel_scalar_mat_sum_us",
        1e6 * _median_time(lambda: accel.accel_scalar_mat_sum(alpha78, packed)), "us")

    t0 = clock()
    profiler.profile(desk, runs=10, seed=rng.randbytes(16))
    put("profiler.profile_s", clock() - t0, "s")
    # each profiled sign is paired with a plain one right after it, so that a
    # slow stretch of the host weighs on both sides of the ratio alike
    ratios = []
    for _ in range(10):
        profiled_ms = profiler.profile(desk, runs=1, seed=rng.randbytes(16)).total_ms("sign")
        mpcith.public_key_digest.cache_clear()  # the profiler signs with a cold digest too
        t0 = clock()
        mpcith.sign(sk, b"", rng.randbytes(32))  # the profiler signs the empty message
        ratios.append(profiled_ms / (1e3 * (clock() - t0)))
    put("profiler.overhead_ratio", statistics.median(ratios), "ratio")
    return out


def _profiled(fn):
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    return result, prof


def _calls(prof, func: str) -> int:
    return sum(
        nc for (path, _, name), (_, nc, _, _, _) in pstats.Stats(prof).stats.items()
        if name == func and path.endswith(os.path.join("mrwb", COUNTED[func]))
    )


def count_metrics(seed: int) -> dict:
    """keccak_f1600 and scalar_mat_sum calls per operation, beside accel's model.

    As the model assumes, the public matrices are already expanded and the
    public-key digest is cold for sign and open.  open's count depends on
    the unopened parties, so it is a mean over several signatures.
    """
    rng = random.Random(f"counts:{seed}")
    out = {}
    for name in PRESET_NAMES:
        ps = mpcith.PRESETS[name]
        randomness = rng.randbytes(32)
        (pk, sk), keygen_prof = _profiled(lambda: mpcith.keygen(ps, randomness))
        mpcith.public_matrices(pk)
        observed = {op: {f: [] for f in COUNTED} for op in accel.OPERATIONS}
        for f in COUNTED:
            observed["keygen"][f].append(_calls(keygen_prof, f))
        for _ in range(SIGNATURES_COUNTED[name]):
            mpcith.public_key_digest.cache_clear()
            sig, sign_prof = _profiled(lambda: mpcith.sign(sk, COUNT_MESSAGE, rng.randbytes(32)))
            mpcith.public_key_digest.cache_clear()
            accepted, open_prof = _profiled(lambda: mpcith.open(pk, COUNT_MESSAGE, sig))
            if not accepted:
                raise RuntimeError(f"{name}: counted open rejected an honest signature")
            for f in COUNTED:
                observed["sign"][f].append(_calls(sign_prof, f))
                observed["open"][f].append(_calls(open_prof, f))
        out[f"serialization.sig_bytes.{name}"] = (len(ser.serialize_signature(sig)), "bytes")
        for op in accel.OPERATIONS:
            for f in COUNTED:
                out[f"trace.{f}.calls.{op}.{name}"] = (statistics.fmean(observed[op][f]), "count")
            out[f"accel.keccak_invocations.{op}.{name}"] = (
                accel.keccak_invocations(ps, op, len(COUNT_MESSAGE)), "count")
            out[f"accel.scalar_mat_sum_invocations.{op}.{name}"] = (
                accel.scalar_mat_sum_invocations(ps, op), "count")
    return out


def _module(path: str):
    head, base = os.path.split(path)
    mod = base[:-3]
    if os.path.basename(head) == "mrwb" and mod in TRACED_MODULES:
        return mod
    return "rest"


def module_self_ms(stats) -> dict:
    """Self time per module; a builtin's time goes to the module that called it."""
    totals = dict.fromkeys(TRACED_MODULES + ("rest",), 0.0)
    for (path, _, _), (_, _, tt, _, callers) in stats.items():
        if path == "~" and callers:
            for (cpath, _, _), (_, _, ctt, _) in callers.items():
                totals[_module(cpath)] += ctt
        else:
            totals[_module(path)] += tt
    return {f"trace.{mod}.self_ms": (1e3 * t, "ms") for mod, t in totals.items()}


def traced_run(workload, rec, seed: int, prof_path: str) -> dict:
    """One warm-up round, one plain round and one round under cProfile."""
    workload.run_round(rec)
    t0 = clock()
    workload.run_round(rec)
    plain = clock() - t0
    t0 = clock()
    _, prof = _profiled(lambda: workload.run_round(rec))
    traced = clock() - t0
    prof.dump_stats(prof_path)
    out = module_self_ms(pstats.Stats(prof).stats)
    out["trace.overhead_ratio"] = (traced / plain, "ratio")
    out.update(probe_metrics(seed))
    out.update(count_metrics(seed))
    return out
