"""The benchmark's workloads: seeded inputs, the timed body, and the correctness gate.

Each workload is a closed loop with one caller.  ``setup`` builds the inputs
from the seed; ``body`` makes the timed calls through ``call``, looking every
sigmaphi function up on its module at call time so that a tracer's wrappers
are the ones called; ``check`` verifies the results of one body by
recomputation and against the values recorded from the seed program.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from collections import Counter
from dataclasses import dataclass
from math import isqrt
from typing import Callable, NamedTuple

from sigmaphi import arith, audit, cli, equations, parametric, smoothness
from sigmaphi.equations import EquationSpec, Kind

# Input sizes.  "full" is what the benchmark measures (each body takes about
# 2-3 s on a 2-core Xeon); "smoke" runs every code path in well under a second.
SIZES = {
    "full": {
        "search-shift": {"max": 2_000_000},
        "search-affine": {"max": 1_000_000},
        "scalar-classify": {
            "lmax": 100_000,
            "sporadic_max": 300_000,
            "semiprimes": 25,
            "prime_bits": 20,
        },
        "smooth-multiperfect": {"x": 2_000_000, "y": 100},
    },
    "smoke": {
        "search-shift": {"max": 20_000},
        "search-affine": {"max": 10_000},
        "scalar-classify": {
            "lmax": 2_000,
            "sporadic_max": 3_000,
            "semiprimes": 4,
            "prime_bits": 10,
        },
        "smooth-multiperfect": {"x": 20_000, "y": 100},
    },
}

# Outputs recorded from the seed program.  The search digests are sha256 of
# the CLI's stdout, taken at --threads 1.
EXPECTED = {
    "full": {
        "search-shift": {
            "sigma": {
                "sha256": "66af148c736166919d9c027f8c59c98ebed774b8fa5cbb34cb9b4406d91a628b",
                "hits": 71,
                "sporadic": 71,
            },
            "phi": {
                "sha256": "d86a9db21e470d8c046aa55023b3624325cba09c3737a10923381ec908382755",
                "hits": 80,
                "sporadic": 80,
            },
        },
        "search-affine": {
            "sigma": {
                "sha256": "3386e7dbaa71c252a477407b3b157df0ef0a0bd547b784369538e78c9ecfd470",
                "hits": 18,
            },
            "phi": {
                "sha256": "84d29ded16ac51169db620061702cb474eef50416b8bb6cabb8e9c13d6c31135",
                "hits": 69,
            },
        },
        "scalar-classify": {
            "witnesses": [2339, 1165],
            "sporadic": {"sigma": 40, "phi": 47},
            "buckets": {"B1": 62, "B2": 1, "B3": 17, "B4": 7},
        },
        "smooth-multiperfect": {
            "sigma_smooth_count": 952604,
            "phi_smooth_count": 973455,
            "psi": 108491,
            "count_S": 104561,
            "consecutive_multiperfect_search": [],
        },
    },
    "smoke": {
        "search-shift": {
            "sigma": {
                "sha256": "c76c780eca6a3845926eb8e8d051b303606243c46517ab3d6b7c48650dd57ae2",
                "hits": 12,
                "sporadic": 12,
            },
            "phi": {
                "sha256": "ce435ae9c150f3ef1644fe2beda5511c1a8ea6999a0fd071cf5585d88bd97125",
                "hits": 21,
                "sporadic": 21,
            },
        },
        "search-affine": {
            "sigma": {
                "sha256": "729f401d15d7b318502fb4e8f886b8ab15cef4b329993d7bafe8afa498bb2097",
                "hits": 3,
            },
            "phi": {
                "sha256": "142086386cc105b0cd4c592401c47c29a2b03eee7419eb09ea1eab4bdf58a2bd",
                "hits": 20,
            },
        },
        "scalar-classify": {
            "witnesses": [102, 49],
            "sporadic": {"sigma": 8, "phi": 13},
            "buckets": {"B1": 14, "B2": 1, "B3": 6},
        },
        "smooth-multiperfect": {
            "sigma_smooth_count": 15710,
            "phi_smooth_count": 15980,
            "psi": 6002,
            "count_S": 1029,
            "consecutive_multiperfect_search": [],
        },
    },
}

SHIFT = ((1, 0, 1, 1), 1)  # f(n) = f(n+1) at --threads 1, with --classify
AFFINE = ((2, 1, 3, 1), 1)  # f(2n+1) = f(3n+1) at --threads 1
# After measuring, search-affine's gate runs each search once more at this
# many threads: the output must equal the timed --threads 1 output.
GATE_THREADS = 2
KINDS = ("sigma", "phi")
SIGMA22, PHI2 = EquationSpec(Kind.SIGMA, 1, 0, 1, 22), EquationSpec(Kind.PHI, 1, 0, 1, 2)
FAMILIES = ((SIGMA22, 3, 14), (PHI2, 2, 1))
BUCKET_Y, BUCKET_Z = 3, 2

Call = Callable[..., object]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[dict, int], dict]
    body: Callable[[dict, Call], None]
    check: Callable[[dict, list, dict], tuple[set[int], list[str]]]
    # Checks of the first body's results that make calls of their own; run
    # after the measurements, so they count in neither wall time nor peak RSS.
    after: Callable[[dict, list], tuple[set[int], list[str]]] | None = None


# -- search-shift and search-affine -----------------------------------------


class CliResult(NamedTuple):
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliResult:
    """One in-process ``sigmaphi`` invocation, its stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue())


def stdout_bytes(calls: list) -> int:
    """Bytes the CLI wrote to stdout over one body's calls."""
    return sum(len(r.stdout.encode()) for _, _, r, _ in calls if isinstance(r, CliResult))


def _search_setup(coeffs, threads: int, classify: bool, gate_threads: int | None = None):
    def setup(size: dict, seed: int) -> dict:
        a1, b1, a2, b2 = coeffs

        def argvs(threads: int) -> list[list[str]]:
            out = []
            for kind in KINDS:
                argv = ["search", "--fn", kind, "--a1", str(a1), "--b1", str(b1)]
                argv += ["--a2", str(a2), "--b2", str(b2), "--max", str(size["max"])]
                argv += ["--threads", str(threads)] + (["--classify"] if classify else [])
                out.append(argv)
            return out

        return {
            "argvs": argvs(threads),
            "gate_threads": gate_threads,
            "gate_argvs": argvs(gate_threads) if gate_threads else None,
            "coeffs": coeffs,
            "max": size["max"],
        }

    return setup


def _search_body(inputs: dict, call: Call) -> None:
    for argv in inputs["argvs"]:
        call("search", run_cli, argv)


def search_rows(stdout: str) -> list[list[str]]:
    """Data rows of the CLI's search CSV (header dropped)."""
    return list(csv.reader(io.StringIO(stdout)))[1:]


def _search_check(inputs: dict, calls: list, expected: dict) -> tuple[set[int], list[str]]:
    a1, b1, a2, b2 = inputs["coeffs"]
    bad, problems = set(), []
    for i, (kind, (_, _, result, _)) in enumerate(zip(KINDS, calls)):
        want, errors = expected[kind], []
        evaluate = arith.sigma if kind == "sigma" else arith.phi
        if isinstance(result, Exception):
            errors.append(f"raised {result!r}")
        elif result.code != 0:
            errors.append(f"exit code {result.code}")
        else:
            stdout = result.stdout
            if hashlib.sha256(stdout.encode()).hexdigest() != want["sha256"]:
                errors.append("stdout digest differs from the recorded one")
            rows = search_rows(stdout)
            if len(rows) != want["hits"]:
                errors.append(f"{len(rows)} hits, expected {want['hits']}")
            for row in rows:
                n, arg1, arg2, value = map(int, row[:4])
                if (arg1, arg2) != (a1 * n + b1, a2 * n + b2):
                    errors.append(f"n={n}: arguments {arg1}, {arg2} are wrong")
                elif not evaluate(arg1) == evaluate(arg2) == value:
                    errors.append(f"n={n}: scalar {kind} disagrees with value {value}")
            if "sporadic" in want:
                sporadic = sum(row[4] == "sporadic" for row in rows)
                if sporadic != want["sporadic"]:
                    errors.append(f"{sporadic} sporadic, expected {want['sporadic']}")
        if errors:
            bad.add(i)
            problems += [f"{kind}: {e}" for e in errors]
    return bad, problems


def _threads_check(inputs: dict, calls: list) -> tuple[set[int], list[str]]:
    """Each search again at ``gate_threads``: its output must equal the timed one's."""
    bad, problems = set(), []
    for i, (kind, argv, (_, _, result, _)) in enumerate(zip(KINDS, inputs["gate_argvs"], calls)):
        try:
            threaded = run_cli(argv)
        except Exception as exc:  # counted as a failed operation
            threaded = exc
        if threaded != result:
            bad.add(i)
            problems.append(f"{kind}: --threads {inputs['gate_threads']} output differs")
    return bad, problems


def sporadic_by_decade(inputs: dict, calls: list) -> list[dict]:
    """Sporadic solutions up to each decade 10^3..N beside bound_main(x).

    The paper's observable, read off search-shift's --classify output.
    """
    limit = inputs["max"]
    xs = [10**e for e in range(3, len(str(limit))) if 10**e < limit] + [limit]
    rows = []
    for kind, (_, _, (_, stdout), _) in zip(KINDS, calls):
        sporadic = [int(r[0]) for r in search_rows(stdout) if r[4] == "sporadic"]
        for x in xs:
            count = sum(n <= x for n in sporadic)
            bound = smoothness.bound_main(x)
            rows.append(
                {"fn": kind, "x": x, "sporadic": count, "bound_main": bound,
                 "ratio": count / bound}
            )
    return rows


# -- scalar-classify --------------------------------------------------------


def _is_prime(n: int) -> bool:
    """Trial division; independent of sigmaphi, for building inputs."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def semiprimes(count: int, bits: int, seed: int) -> list[tuple[int, int]]:
    """``count`` seeded prime pairs p < q, both in [2**bits, 2**(bits+1)).

    The range is cut into 2*count equal strata with one random prime in each,
    and neighbouring strata are paired, so the smaller factors (which set the
    cost of trial division) cover the range evenly for every seed.
    """
    rng = random.Random(seed)
    lo, width = 1 << bits, (1 << bits) // (2 * count)
    primes = []
    for s in range(2 * count):
        while True:
            p = rng.randrange(lo + s * width, lo + (s + 1) * width)
            if _is_prime(p):
                primes.append(p)
                break
    pairs = [(primes[2 * i], primes[2 * i + 1]) for i in range(count)]
    rng.shuffle(pairs)
    return pairs


def _scalar_setup(size: dict, seed: int) -> dict:
    spec = {k: EquationSpec(Kind(k), 1, 0, 1, 1) for k in KINDS}
    shift_one = [
        (spec[k], rec.n) for k in KINDS for rec in equations.search(spec[k], size["sporadic_max"])
    ]
    return {
        "families": [parametric.derive_family(*f) for f in FAMILIES],
        "lmax": size["lmax"],
        "shift_one": shift_one,
        "params": audit.override_params(size["sporadic_max"], BUCKET_Y, BUCKET_Z),
        "semiprimes": semiprimes(size["semiprimes"], size["prime_bits"], seed),
    }


def _scalar_body(inputs: dict, call: Call) -> None:
    generated = [call("generate", parametric.generate, f, inputs["lmax"]) for f in inputs["families"]]
    for witnesses in generated:
        for w in witnesses or ():
            call("classify", parametric.classify, w.family.spec, w.n)
    sporadic = [
        (spec, n)
        for spec, n in inputs["shift_one"]
        if call("classify", parametric.classify, spec, n) is None
    ]
    for spec, n in sporadic:
        call("assign_bucket", audit.assign_bucket, spec, n, inputs["params"])
    for p, q in inputs["semiprimes"]:
        call("factorize", arith.factorize, p * q)


def _scalar_check(inputs: dict, calls: list, expected: dict) -> tuple[set[int], list[str]]:
    bad, problems = set(), []
    generated = iter(expected["witnesses"])
    factors = iter(inputs["semiprimes"])
    buckets, sporadic = Counter(), Counter()
    witness_ns, shift_one_calls, bucket_calls = set(), [], []
    for i, (label, args, result, _) in enumerate(calls):
        error = None
        if isinstance(result, Exception):
            error = f"raised {result!r}"
        elif label == "generate":
            want = next(generated)
            if len(result) != want:
                error = f"{len(result)} witnesses, expected {want}"
            elif not all(parametric.verify_witness(w) for w in result):
                error = "a witness fails verify_witness"
            witness_ns.update((w.family.spec, w.n) for w in result)
        elif label == "classify" and args in witness_ns:
            if result is None or result.n != args[1] or not parametric.verify_witness(result):
                error = f"n={args[1]}: generated witness not classified parametric"
        elif label == "classify":
            shift_one_calls.append(i)
            if result is None:
                sporadic[args[0].kind.value] += 1
            elif not parametric.verify_witness(result):
                error = f"n={args[1]}: classify witness fails verify_witness"
        elif label == "assign_bucket":
            bucket_calls.append(i)
            buckets[result.bucket.value] += 1
        elif label == "factorize":
            p, q = next(factors)
            want = [(p, 2)] if p == q else [(p, 1), (q, 1)]
            if result != want or not all(arith.is_prime(f) for f, _ in result):
                error = f"factorize({p * q}) = {result}, expected {want}"
        if error:
            bad.add(i)
            problems.append(f"{label}: {error}")
    if dict(sporadic) != expected["sporadic"]:
        bad.update(shift_one_calls)
        problems.append(f"sporadic split {dict(sporadic)}, expected {expected['sporadic']}")
    if dict(buckets) != expected["buckets"]:
        bad.update(bucket_calls)
        problems.append(f"buckets {dict(buckets)}, expected {expected['buckets']}")
    return bad, problems


# -- smooth-multiperfect -----------------------------------------------------

_SMOOTH_COUNTERS = ("sigma_smooth_count", "phi_smooth_count", "psi", "count_S")


def _smooth_setup(size: dict, seed: int) -> dict:
    return dict(size)


def _smooth_body(inputs: dict, call: Call) -> None:
    x, y = inputs["x"], inputs["y"]
    for name in _SMOOTH_COUNTERS:
        call(name, getattr(smoothness, name), x, y)
    call("consecutive_multiperfect_search", parametric.consecutive_multiperfect_search, x)


def _smooth_check(inputs: dict, calls: list, expected: dict) -> tuple[set[int], list[str]]:
    bad, problems = set(), []
    for i, (label, _, result, _) in enumerate(calls):
        if result != expected[label]:
            bad.add(i)
            problems.append(f"{label} = {result!r}, expected {expected[label]!r}")
    return bad, problems


WORKLOADS = {
    "search-shift": Workload(_search_setup(*SHIFT, classify=True), _search_body, _search_check),
    "search-affine": Workload(
        _search_setup(*AFFINE, classify=False, gate_threads=GATE_THREADS),
        _search_body,
        _search_check,
        _threads_check,
    ),
    "scalar-classify": Workload(_scalar_setup, _scalar_body, _scalar_check),
    "smooth-multiperfect": Workload(_smooth_setup, _smooth_body, _smooth_check),
}
