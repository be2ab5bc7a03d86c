"""Seeded inputs and expected answers for the four job mixes.

``generate(workload, seed, index)`` returns the input files (name ->
bytes) and round ``index`` of jobs.  A job is an ``nccw`` argv plus the
answer the oracle expects; nccw only ever sees the files.  The round's
composition (which sizes, theories and flags) is fixed per workload so
that every run and every round of a workload measure the same mix; the
seed and the round index only change the values inside each input, so no
input repeats from one round to the next.  Round 0 is the warm-up round;
its first job is the warm-up job.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random

from . import oracle as O

Z = O.group(1)


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _g(g):
    return [g[0], list(g[1])]


def _result(theory, answer, *, stable=False, page2=False) -> dict:
    """JSON-safe expectation for a result payload."""
    rat = O.rational if theory == "HP" else (lambda g: g)
    out = {"type": "result", "theory": theory}
    for key in ("even", "odd"):
        out[key] = _g(rat(answer[key]["group"]))
        out[key + "_ext"] = answer[key]["up_to_extension"] if theory == "K" else False
    field = "stable" if stable else "page2" if page2 else None
    if field:
        entries = {f"{p},{par}": _g(rat(g)) for (p, par), g in answer[field].items()}
        out["last_page"] = {key: v for key, v in entries.items() if v != [0, []]}
    return out


def _answer(h, theory):
    h = [O.rational(g) for g in h] if theory == "HP" else h
    return O.cellular_answer(h)


def _compute(path, theory, h, *extra, as_json=True):
    argv = ["compute", path, "--theory", theory.lower(), *extra]
    if as_json:
        argv.append("--json")
    expect = _result(theory, _answer(h, theory), stable="--pages" in extra)
    expect["k"] = len(h) - 1
    return {"argv": argv, "expect": expect}


# ---------------------------------------------------------------------------
# chain-level building blocks


@functools.cache
def simplex_boundary(n):
    """Counts and chain boundaries of the boundary of the (n+1)-simplex."""
    faces = [list(itertools.combinations(range(n + 2), p + 1)) for p in range(n + 1)]
    index = [{f: i for i, f in enumerate(fs)} for fs in faces]
    counts = [len(fs) for fs in faces]
    bds = []
    for p in range(n):
        m = [[0] * counts[p + 1] for _ in range(counts[p])]
        for j, f in enumerate(faces[p + 1]):
            for k in range(len(f)):
                m[index[p][f[:k] + f[k + 1 :]]][j] = (-1) ** k
        bds.append(m)
    return counts, bds


@functools.cache
def torus_grid(w):
    """Triangulated w-by-w torus: w^2 vertices, 3w^2 edges, 2w^2 triangles."""
    v = lambda i, j: (i % w) * w + (j % w)  # noqa: E731
    edges, tris = {}, []
    def edge(a, b):
        key = (min(a, b), max(a, b))
        return edges.setdefault(key, len(edges)), (1 if a < b else -1)
    for i in range(w):
        for j in range(w):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            for e in ((a, b), (a, c), (a, d)):
                edge(*e)
            tris += [(a, b, d), (a, d, c)]
    d1 = [[0] * len(edges) for _ in range(w * w)]
    for (a, b), k in edges.items():
        d1[a][k] -= 1
        d1[b][k] += 1
    d2 = [[0] * len(tris) for _ in range(len(edges))]
    for t, (a, b, c) in enumerate(tris):
        for (x, y), s in (((a, b), 1), ((b, c), 1), ((a, c), -1)):
            k, o = edge(x, y)
            d2[k][t] += s * o
    return [w * w, len(edges), len(tris)], [d1, d2]


def signed_permutation(counts, bds, rng):
    """Relabel and re-sign the cells of every degree; cohomology is unchanged."""
    perms = [rng.sample(range(c), c) for c in counts]
    signs = [[rng.choice((-1, 1)) for _ in range(c)] for c in counts]
    out = []
    for p, b in enumerate(bds):
        pr, pc, sr, sc = perms[p], perms[p + 1], signs[p], signs[p + 1]
        out.append(
            [[sr[i] * sc[j] * b[pr[i]][pc[j]] for j in range(counts[p + 1])] for i in range(counts[p])]
        )
    return out


def _unimodular(n, ops, rng):
    """Random product of ``ops`` elementary row operations, and its inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    pinv = [row[:] for row in p]
    if n < 2:
        return p, pinv
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= c * row[i]
    return p, pinv


def _matmul(a, b, inner, cols):
    return [[sum(row[t] * b[t][j] for t in range(inner)) for j in range(cols)] for row in a]


def hidden_complex(k, free, pairs, mixing, rng):
    """Chain complex with prescribed cohomology, disguised by a change of basis.

    ``free[p]`` cycles sit in degree p; a pair ``(p, m)`` is a (p+1)-cell
    whose boundary is m times a p-cell (m = 1 is a contractible pair).
    Returns counts, boundaries and the cohomology ``H^q = Z^free[q] (+)
    Z/m`` for each pair with p + 1 = q.
    """
    counts = list(free)
    entries = []
    for p, m in pairs:
        entries.append((p, counts[p], counts[p + 1], m))
        counts[p] += 1
        counts[p + 1] += 1
    base = [[[0] * counts[p + 1] for _ in range(counts[p])] for p in range(k)]
    for p, i, j, m in entries:
        base[p][i][j] = m
    change = [_unimodular(c, mixing * c, rng) for c in counts]
    bds = [
        _matmul(_matmul(change[p][0], base[p], counts[p], counts[p + 1]), change[p + 1][1],
                counts[p + 1], counts[p + 1])
        for p in range(k)
    ]
    h = [O.group(free[q], [m for p, m in pairs if p + 1 == q]) for q in range(k + 1)]
    return counts, bds, h


def _cw(name, counts, bds):
    return {"name": name, "classical_cw": {"counts": counts, "boundaries": bds}}


def _sphere_h(n):
    return [Z] + [O.ZERO] * (n - 1) + [Z]


def _tag(rng) -> str:
    """A seeded name suffix, so that fixed shapes differ from round to round."""
    return f"{rng.getrandbits(24):06x}"


def minimal_sphere(n, tag):
    """One 0-cell and one n-cell (n >= 1)."""
    counts = [1] + [0] * (n - 1) + [1]
    bds = [[[0] * counts[p + 1] for _ in range(counts[p])] for p in range(n)]
    return _cw(f"s{n}_{tag}", counts, bds)


# ---------------------------------------------------------------------------
# workloads


# (copies, [(theory, extra flags, json output)]) per sphere dimension.
# The median falls among the S^4 jobs, the p75 tail among the S^5 jobs,
# and S^7 (3 to 4 s a theory when this was written) carries most of the
# time.  A round runs the S^3..S^5 plan twice, on other copies, and the
# two twins count as one job timed twice a round: the jobs that set the
# median and the tail get twice as many tries at a quiet CPU.
_SPHERE_PLAN = {
    3: (4, [("K", (), True), ("HP", (), False), ("K", ("--pages",), False),
            ("HP", ("--pages",), True)]),
    4: (3, [("K", (), True), ("HP", (), False), ("K", ("--pages",), False),
            ("HP", ("--pages",), True)]),
    5: (2, [("K", (), True), ("HP", (), True), ("K", ("--pages",), False),
            ("HP", ("--pages",), True), ("K", ("--pages", "--paper-indexing"), False)]),
    6: (1, [("K", (), True), ("HP", ("--pages",), True)]),
    7: (1, [("K", (), True), ("HP", (), True)]),
}


def spheres(rng):
    files, halves = {}, ([], [])
    for n, (copies, flags) in _SPHERE_PLAN.items():
        counts, bds = simplex_boundary(n)
        for copy in range(copies * (2 if n <= 5 else 1)):
            name, twin = f"s{n}_{copy}.json", f"s{n}_{copy % copies}.json"
            files[name] = _cw(name[:-5], counts, signed_permutation(counts, bds, rng))
            jobs = [_compute(name, theory, _sphere_h(n), *extra, as_json=as_json)
                    for theory, extra, as_json in flags]
            for job in jobs:  # a job and its twin in the other half time one job
                job["kind"] = " ".join(job["argv"]).replace(name, twin)
            if n <= 5:
                halves[copy // copies].extend(jobs)
            else:
                halves[n - 6].extend(jobs)
    return files, halves[0] + halves[1]


def dense(rng):
    files, jobs = {}, []
    # Known torsion hidden by a change of basis: three degrees of
    # contractible pairs around an RP^3-style Z/m chain and one extra
    # torsion pair; the change of basis makes every matrix dense.
    for size in range(10, 27, 4):
        for copy in range(3):
            m = rng.choice((2, 3, 4, 5))
            m2 = rng.choice((2, 3, 4, 6))
            half = size // 2
            pairs = [(0, 1)] * half + [(1, 1)] * half + [(2, 1)] * half
            pairs += [(1, m), (rng.choice((0, 2)), m2)]
            rng.shuffle(pairs)
            counts, bds, h = hidden_complex(3, [1, 0, 0, 1], pairs, 4, rng)
            name = f"dense{size}_{copy}.json"
            files[name] = _cw(name[:-5], counts, bds)
            for theory in ("K", "HP"):
                jobs.append(_compute(name, theory, h, as_json=(copy != 1)))
    # Random n-by-n matrices with entries in -3..3 (ROADMAP's dense family)
    # as the one boundary of a two-term complex: H^1 is the cokernel.  On
    # n = 24 the transforms reach 10^3 to 2*10^4 bits.  The job time depends
    # on the draw, more so as n grows: when this was written, over 16 to 40
    # draws a size, the seed code took 0.04-0.4 s on n = 24, 0.1-2.6 s on
    # n = 26, up to 25 s on n = 28 and up to 130 s on n = 40.  So the sizes
    # stop at 24, where every job ends well inside a run.  A singular draw
    # (it has not happened) is drawn again.
    for size in range(16, 25, 2):
        for copy in range(3):
            while True:
                mat = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
                factors = O.square_invariant_factors(mat)
                if factors is not None:
                    break
            name = f"pm{size}_{copy}.json"
            files[name] = _cw(name[:-5], [size, size], [mat])
            for theory in ("K", "HP"):
                jobs.append(_compute(name, theory, [O.ZERO, O.group(0, factors)],
                                     as_json=(copy % 2 == 0)))
    return files, jobs


_TORSION = (2, 3, 4, 6)
_EVEN_TORSION = (2, 4, 6)


def _fibration(base, h, theory, even_spec, odd_spec, rng):
    """A coefficient job.  A spec such as ``"ft"`` fixes the summands (f: Z,
    t: a cyclic group whose order the seed picks), so the seed changes the
    groups but not the size of the coefficient expansion: two torsion
    summands are both even, so they never merge into one cyclic group.
    HP jobs take the free summands only."""
    strings, rows = [], []
    for spec in (even_spec, odd_spec):
        if theory == "HP":
            free = len(spec)
            strings.append(f"Z^{free}" if free > 1 else "Z")
            rows.append([O.group(free * O.rational(x)[0]) for x in h])
            continue
        pool = _EVEN_TORSION if spec.count("t") > 1 else _TORSION
        orders = [0 if c == "f" else rng.choice(pool) for c in spec]
        rng.shuffle(orders)
        terms = [f"Z/{d}" if d else "Z" for d in orders]
        strings.append(rng.choice(("+", " (+) ")).join(terms))
        rows.append(O.coefficient_cohomology(h, O.group(0, orders)))
    answer = O.fibration_answer(*rows)
    argv = ["fibration", "--base", base, "--coeff-even", strings[0], "--coeff-odd", strings[1],
            "--theory", theory.lower(), "--json"]
    return {"argv": argv, "expect": _result(theory, answer, page2=True)}


def _rp_hidden(n, rng):
    """RP^n (H^0 = Z, Z/2 in even degrees up to n, Z on top when n is odd)
    with four contractible pairs per degree hidden by a change of basis."""
    free = [1] + [0] * (n - 1) + [n % 2]
    pairs = [(j - 1, 2) for j in range(2, n + 1, 2)]
    pairs += [(p, 1) for p in range(n) for _ in range(4)]
    rng.shuffle(pairs)
    return hidden_complex(n, free, pairs, 2, rng)


def coefficients(rng):
    files, jobs = {}, []
    bases = {}
    for n in (3, 4):
        counts, bds = simplex_boundary(n)
        bases[f"s{n}"] = (counts, signed_permutation(counts, bds, rng), _sphere_h(n))
    counts, bds = torus_grid(3)
    bases["t2"] = (counts, signed_permutation(counts, bds, rng), [Z, O.group(2), Z])
    for n in (4, 5):
        bases[f"rp{n}"] = _rp_hidden(n, rng)
    for name, (counts, bds, _) in bases.items():
        files[f"{name}.json"] = _cw(name, counts, bds)
    # (base, theory, even summands, odd summands): 46 jobs a round whose
    # costs spread evenly from about 10 to 550 ms when this was written, so
    # neither the median nor the p75 tail sits in a gap between job kinds
    hp = [("rp5", "f", "f"), ("s3", "f", "f"), ("s3", "ff", "f"), ("s4", "f", "f"),
          ("s4", "f", "ff"), ("t2", "f", "f"), ("t2", "ff", "f"), ("rp4", "f", "f"),
          ("rp4", "ff", "ff"), ("rp5", "f", "ff")]
    k = {
        "s3": ["f/t", "t/f", "t/t", "ff/t", "ft/t", "t/ft", "ft/ft", "f/tt", "tt/t", "ft/tt",
               "tt/tt"],
        "rp4": ["f/t", "t/f", "ff/t", "t/t", "ft/t", "t/ft", "ft/ft", "f/tt"],
        "rp5": ["f/t", "t/t", "ff/t", "ft/t", "t/ft", "ft/ft"],
        "s4": ["f/t", "t/f", "t/t", "ff/t", "ft/t"],
        "t2": ["f/t", "t/f", "t/t", "ff/t"],
    }
    plan = [(base, "HP", e, o) for base, e, o in hp]
    plan += [(base, "K", *spec.split("/")) for base, specs in k.items() for spec in specs]
    for base, theory, even_spec, odd_spec in plan:
        jobs.append(_fibration(f"{base}.json", bases[base][2], theory, even_spec, odd_spec, rng))
    # relative coefficients: m times the identity of the odd sphere S^3 has
    # Z/m in both parities, so both totals are flagged Z/m (+) Z/m
    counts = bases["s3"][0]
    for copy in range(2):
        m = rng.randint(2, 7)
        mname = f"mul{copy}.json"
        files[mname] = {
            "name": f"mul{m}",
            "maps": [[[m * int(i == j) for j in range(c)] for i in range(c)] for c in counts],
        }
        row = O.coefficient_cohomology(bases["s3"][2], O.group(0, [m]))
        jobs.append({
            "argv": ["fibration", "--base", "s3.json", "--map", mname, "--total", "s3.json", "--json"],
            "expect": _result("K", O.fibration_answer(row, row), page2=True),
        })
    return files, jobs


def _dimension_drop(p, tag):
    return {"name": f"i{p}_{tag}", "stages": [
        {"dim": 0, "algebra": [1, 1]},
        {"dim": 1, "F": [p], "phi0": [[p, 0]], "phi1": [[0, p]]},
    ]}


def _endpoint_tower(name, blocks, rng):
    """Random stage-1 tower with ``blocks`` = (algebra blocks, F blocks);
    multiplicities respect every block size."""
    a = [rng.randint(1, 3) for _ in range(blocks[0])]
    f = [rng.randint(4, 12) for _ in range(blocks[1])]
    phis = []
    for _ in range(2):
        mult = []
        for size in f:
            row, room = [], size
            for s in a:
                k = rng.randint(0, room // s)
                row.append(k)
                room -= k * s
            mult.append(row)
        phis.append(mult)
    delta = [[x - y for x, y in zip(r0, r1)] for r0, r1 in zip(*phis)]
    tower = {"name": name, "stages": [
        {"dim": 0, "algebra": a},
        {"dim": 1, "F": f, "phi0": phis[0], "phi1": phis[1]},
    ]}
    return tower, delta


def _suspended(tower, delta):
    """Expected ``transform --op suspend`` output: stages move up one."""
    a, f = tower["stages"][0]["algebra"], tower["stages"][1]["F"]
    return {"name": f"{tower['name']}_suspended", "stages": [
        {"dim": 0, "algebra": []},
        {"dim": 1, "F": a, "delta": [[] for _ in a]},
        {"dim": 2, "F": f, "delta": delta},
    ]}


def small_towers(rng):
    files, jobs = {}, []
    for copy in range(6):
        p = rng.randint(2, 12)
        name = f"i{copy}.json"
        files[name] = _dimension_drop(p, _tag(rng))
        h = [Z, O.group(0, [p])]
        for theory in ("K", "HP"):
            jobs.append(_compute(name, theory, h, as_json=(copy % 2 == 0)))
        if copy == 0:
            delta = [[p, -p]]
            jobs.append({"argv": ["transform", name, "--op", "suspend"],
                         "expect": {"type": "complex", "payload": _suspended(files[name], delta)}})
            jobs.append({"argv": ["transform", name, "--op", "cone", "--json"],
                         "expect": _result("K", O.cellular_answer([O.ZERO]))})
    for copy in range(6):
        name = f"ep{copy}.json"
        files[name], delta = _endpoint_tower(name[:-5], (2 + copy % 3, 1 + copy % 3), rng)
        h = O.endpoint_cohomology(delta)
        for theory in ("K", "HP"):
            jobs.append(_compute(name, theory, h, as_json=(copy % 2 == 1)))
        if copy < 2:
            jobs.append({"argv": ["transform", name, "--op", "suspend"],
                         "expect": {"type": "complex", "payload": _suspended(files[name], delta)}})
    # degree-m maps between minimal spheres: the cylinder sees the codomain,
    # the mapping cone Z/m in the parity of n, and the relative coefficient
    # sequence over S^n has Z/m on the fiber row of parity n at p = 0 and n
    for copy, n in enumerate((1, 2, 3, 4)):
        m = rng.randint(2, 9)
        sname, mname = f"sph{n}.json", f"deg{copy}.json"
        files[sname] = minimal_sphere(n, _tag(rng))
        maps = [[[1]]] + [[] for _ in range(n - 1)] + [[[m]]]
        tag = _tag(rng)
        files[mname] = {"name": f"deg{m}_{tag}", "dst": minimal_sphere(n, tag), "maps": maps}
        fib_maps = {"name": f"deg{m}_{tag}", "maps": maps}
        files[f"fib{copy}.json"] = fib_maps
        h = _sphere_h(n)
        rel = [O.ZERO] * n + [O.group(0, [m])]
        jobs.append({"argv": ["transform", sname, "--op", "cylinder", "--map", mname, "--json"],
                     "expect": _result("K", O.cellular_answer(h))})
        jobs.append({"argv": ["transform", sname, "--op", "mapcone", "--map", mname, "--json"],
                     "expect": _result("K", O.cellular_answer(rel))})
        zm = O.group(0, [m])
        rows = [[O.ZERO] * (n + 1), [O.ZERO] * (n + 1)]
        rows[n % 2] = O.coefficient_cohomology(h, zm)
        jobs.append({"argv": ["fibration", "--base", sname, "--map", f"fib{copy}.json",
                              "--total", sname, "--json"],
                     "expect": _result("K", O.fibration_answer(*rows), page2=True)})
    return files, jobs


WORKLOADS = {
    "spheres": spheres,
    "dense": dense,
    "coefficients": coefficients,
    "small_towers": small_towers,
}


def round_seed(workload: str, seed: int, index: int) -> str:
    return f"{workload}:{seed}:{index}"


def generate(workload: str, seed: int, index: int = 0) -> tuple[dict[str, bytes], list[dict]]:
    rng = random.Random(round_seed(workload, seed, index))
    files, jobs = WORKLOADS[workload](rng)
    for i, job in enumerate(jobs):  # what the job's time is kept under
        job.setdefault("kind", f"#{i}")
    return {name: _dump(obj) for name, obj in files.items()}, jobs


def input_hash(files: dict[str, bytes], jobs: list[dict]) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name] + b"\0")
    digest.update(_dump(jobs))
    return digest.hexdigest()
