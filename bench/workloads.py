"""The four benchmark workloads: inputs drawn from a seed, the timed call,
and the answer check that runs outside the timed span.

Each workload builds one pass, a fixed list of items, from its seed.  The
runner repeats the pass, so every pass sends the library the same inputs
and the per-pass counts of a traced run are exact.

- ``extremize``: the optimizer rows of the reference suite with at most six
  modes, each state relabelled by a seeded partition-aligned unitary, sent
  through the CLI.  This is the paper's own traffic.
- ``bunched``: CLI optimize queries on high-occupancy states, where the
  objective build and the sparse fallback of ``entropy_objective`` cost.
- ``rewrite``: parse, exp map, rewrite, Schmidt spectrum, rank bound and
  render, with no optimizer; the sparse engine and the analysis and I/O
  layers on their own.
- ``objective``: the optimizer's unit of work through the public API, on
  the paper's states and bunched states: a CLI entropy query, the
  objective build, and evaluations of the built objective at seeded
  points.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections.abc import Callable

import numpy as np

from fockmodes import cli, entanglement, ketparse, optimize, transform
from fockmodes.entanglement import Partition
from fockmodes.fock import PureState, inner_product
from fockmodes.transform import ModeUnitary

LOG2_3 = math.log2(3.0)

# Optimizer rows of the reference suite with M <= 6, replayed here with
# the suite's reference values and tolerances: (row, ket, partition,
# direction, expected, tolerance).
EXTREMIZE_ROWS = (
    ("6.1", "|20> + |02>", "0|1", "min", 0.0, 1e-6),
    ("6.2", "|20> + |02>", "0|1", "max", LOG2_3, 1e-3),
    ("7.1", "|1001> + |0110>", "0,1|2,3", "min", 1.0, 1e-6),
    ("7.2", "|1001> + |0110>", "0,1|2,3", "max", 2.0, 1e-3),
    ("8.1", "|1001> + |0110>", "0|1,2,3", "min", 2.0 - 0.75 * LOG2_3, 5e-4),
    ("8.3", "|1001> + |0110>", "0|1,2,3", "max", 1.3002, 5e-4),
    ("9.1", "|100001> + |010010> + |001100>", "0,1,2|3,4,5", "min", 1.0, 1e-6),
    ("9.2", "|100001> + |010010> + |001100>", "0,1,2|3,4,5", "max",
     math.log2(5.0), 1e-3),
    ("11.2", "|0220> + |2002> - |1111>", "0,1|2,3", "min", LOG2_3, 1e-6),
    ("11.3", "|0220> + |2002> - |1111>", "0,1|2,3", "max", 2.9798, 2e-3),
    ("12.1", "|00> + |11>", "0|1", "min", 0.3546, 5e-4),
    ("12.2", "|00> + |11>", "0|1", "max", 1.0071, 5e-4),
)

# Bunched queries: (kind, photon counts, direction).  The shapes and
# directions are fixed so every seed sends the same cost mix; the seed
# draws what leaves the cost alone: the NOON relative phase, the mode order
# of a Fock state and, for three modes, which mode stands alone in the cut.
# Nine queries cost 0.2-0.9 s at the seed commit and three 0.9-1.5 s, so
# the median sits inside the cheap group, not on the edge between groups.
# Two-mode states run six restarts and three-mode states two, which keeps
# a pass near 4.5 s: each query then repeats about 11 times in a run, and
# its fastest repeat reads through the host's drift.  3**9 is below the 300 000
# dense-sector limit of `entropy_objective` and 3**12 above it, so the
# triples sit on both sides of the dense/sparse switch.  Ten or eleven
# photons in three modes are left out: their dense build alone takes 3-17 s.
BUNCHED_QUERIES = (
    ("noon", (6,), "max"),
    ("noon", (7,), "min"),
    ("noon", (8,), "min"),
    ("fock", (3, 3), "max"),
    ("fock", (4, 2), "min"),
    ("fock", (4, 3), "min"),
    ("fock", (5, 3), "max"),
    ("fock", (6, 2), "max"),
    ("fock", (4, 3, 2), "min"),
    ("fock", (4, 4, 4), "max"),
    ("fock", (5, 5), "min"),
    ("noon", (10,), "max"),
)
PAIR_RESTARTS = 6
TRIPLE_RESTARTS = 2

# Rewrite shapes: every (M, N) with M = 3..6 modes and N = 2..6 photons,
# with 1-4 terms; vacuum plus photon pairs (mixed totals); and states with a
# mode holding ten or more photons (the comma-ket form).  Each shape is
# drawn REWRITE_DRAWS times per pass.
REWRITE_SHAPES = tuple(
    ("fock", m, n, 1 + (m + n) % 4) for m in range(3, 7) for n in range(2, 7)
) + (
    ("vacuum-pairs", 3, 2, 2),
    ("vacuum-pairs", 4, 2, 3),
    ("vacuum-pairs", 5, 2, 3),
    ("vacuum-pairs", 6, 2, 4),
    ("comma", 3, 11, 2),
    ("comma", 3, 12, 1),
    ("comma", 4, 10, 1),
)
REWRITE_DRAWS = 4

# Objective states beyond the paper's: (kind, photon counts).  The seed
# draws the NOON phase and the mode order of a Fock state; the first count's
# mode, with the next ones up to half the modes, forms side A of the cut.
# Two-mode states build their dense objective from N! permutations per term
# (8 photons: about 12 ms); |3,3,2> and |2,2,2,1> are dense in three and four
# modes; |12,0,0> and |4,4,4> pass the 300 000 dense-sector limit of
# `entropy_objective` (3**12), so every evaluation takes the sparse fallback.
OBJECTIVE_BUNCHED = (
    ("noon", (6,)),
    ("noon", (7,)),
    ("noon", (8,)),
    ("fock", (4, 2)),
    ("fock", (5, 3)),
    ("fock", (4, 4)),
    ("fock", (3, 3, 2)),
    ("fock", (2, 2, 2, 1)),
    ("fock", (12, 0, 0)),
    ("fock", (4, 4, 4)),
)
# Evaluations of each built objective per pass, at seeded points.
OBJECTIVE_EVALS = 4

# Answer-check tolerances.
CHECK_TOL = 1e-9
RESTART_HIT_TOL = 1e-6


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random dim x dim unitary (QR of a complex Gaussian, phases fixed)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def partition_aligned_unitary(rng, partition: Partition) -> ModeUnitary:
    """U_A (+) U_B with both blocks Haar-random; entropy across the cut is invariant."""
    dim = partition.mode_count
    matrix = np.zeros((dim, dim), dtype=complex)
    for side in (partition.side_a, partition.side_b):
        matrix[np.ix_(side, side)] = haar_unitary(rng, len(side))
    return ModeUnitary(matrix)


def comma_ket(occ) -> str:
    return "|" + ",".join(map(str, occ)) + ">"


def relabelled_ket(rng, ket: str, partition: Partition) -> str:
    """`ket` under a seeded partition-aligned unitary, to 15 digits."""
    relabelled = transform.apply_redefinition(
        ketparse.parse_state(ket), partition_aligned_unitary(rng, partition)
    )
    return ketparse.format_state(relabelled, precision=15)


def noon_ket(rng, photons: int) -> str:
    """|N,0> + e^{i phi}|0,N> with a seeded phase phi (normalized on parse)."""
    phase = rng.uniform(0.0, 2.0 * math.pi)
    amp = f"({math.cos(phase):.6f}{math.sin(phase):+.6f}i)"
    return f"{comma_ket((photons, 0))} + {amp}*{comma_ket((0, photons))}"


def sector_rank_bound(total: int, size_a: int, size_b: int) -> int:
    """Schmidt rank bound of a definite-N state, counted here independently."""
    return sum(
        min(math.comb(n + size_a - 1, size_a - 1),
            math.comb(total - n + size_b - 1, size_b - 1))
        for n in range(total + 1)
    )


def run_cli_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def read_cli_report(answer) -> dict:
    """The CLI's JSON report; raises ValueError on a failed query."""
    code, out, err = answer
    if code != 0:
        raise ValueError(f"exit code {code}: {err.strip()}")
    return json.loads(out)


def restart_hits(report: dict) -> tuple[int, int]:
    """(restarts within RESTART_HIT_TOL of the best, restarts)."""
    values = report["restart_values"]
    best = report["best"]
    return sum(abs(v - best) <= RESTART_HIT_TOL for v in values), len(values)


class _OptimizeQueries:
    """CLI optimize queries; keeps each item's restart hits for the trace."""

    def execute(self, item):
        return run_cli_captured(item["argv"])

    def check(self, index: int, item, answer) -> str | None:
        report = read_cli_report(answer)
        self.hits[index] = restart_hits(report)
        return self.verify(item, report["best"])

    def restart_hit_ratio(self) -> float:
        hits = sum(h for h, _ in self.hits.values())
        return hits / sum(n for _, n in self.hits.values())


class Extremize(_OptimizeQueries):
    """Reference-suite optimizer rows on seeded relabellings of their states."""

    name = "extremize"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.hits: dict[int, tuple[int, int]] = {}
        self.items = []
        for row, ket, cut, direction, expected, tol in EXTREMIZE_ROWS:
            text = relabelled_ket(rng, ket, Partition.from_string(cut))
            self.items.append({
                "label": row,
                "argv": ["optimize", text, "--partition", cut,
                         "--direction", direction, "--json"],
                "expected": expected,
                "tolerance": tol,
            })

    @staticmethod
    def verify(item, best: float) -> str | None:
        error = abs(best - item["expected"])
        if not error <= item["tolerance"]:
            return (f"best {best!r} misses {item['expected']!r} "
                    f"by {error:.3e} > {item['tolerance']:g}")
        return None


class Bunched(_OptimizeQueries):
    """High-occupancy optimize queries through the CLI."""

    name = "bunched"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.hits: dict[int, tuple[int, int]] = {}
        self.items = [self._draw(rng, *query) for query in BUNCHED_QUERIES]

    @staticmethod
    def _draw(rng, kind, counts, direction):
        if kind == "noon":
            (photons,) = counts
            ket = noon_ket(rng, photons)
            occ, entropy, cut = (photons, 0), 1.0, "0|1"
        else:
            occ = tuple(int(c) for c in rng.permutation(counts))
            ket = comma_ket(occ)
            entropy = 0.0
            if len(occ) == 2:
                cut = "0|1"
            else:
                alone = int(rng.integers(3))
                cut = f"{alone}|" + ",".join(str(i) for i in range(3) if i != alone)
        argv = ["optimize", ket, "--partition", cut, "--direction", direction, "--json"]
        restarts = TRIPLE_RESTARTS if len(occ) == 3 else PAIR_RESTARTS
        argv += ["--restarts", str(restarts)]
        partition = Partition.from_string(cut)
        bound = sector_rank_bound(
            sum(occ), len(partition.side_a), len(partition.side_b)
        )
        return {
            "label": f"{kind} {ket} {cut} {direction}",
            "argv": argv,
            "direction": direction,
            "input_entropy": entropy,
            "log2_bound": math.log2(bound),
        }

    @staticmethod
    def verify(item, best: float) -> str | None:
        low, high = (0.0, item["input_entropy"]) if item["direction"] == "min" \
            else (item["input_entropy"], item["log2_bound"])
        if not low - CHECK_TOL <= best <= high + CHECK_TOL:
            return f"best {best!r} outside [{low!r}, {high!r}]"
        return None


class Objective:
    """Objective builds and evaluations, plus the CLI entropy query."""

    name = "objective"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.sources = [self._paper_source(rng, ket, cut)
                        for ket, cut in dict.fromkeys(
                            (row[1], row[2]) for row in EXTREMIZE_ROWS)]
        self.sources += [self._bunched_source(rng, kind, counts)
                         for kind, counts in OBJECTIVE_BUNCHED]
        self.items = []
        for index, source in enumerate(self.sources):
            label = f"{source['text']} {source['cut']}"
            self.items.append({
                "label": f"cli {label}", "kind": "cli", "source": index,
                "argv": ["entropy", source["text"], "--partition", source["cut"],
                         "--json"],
            })
            self.items.append({"label": f"build {label}", "kind": "build",
                               "source": index})
            params = source["state"].mode_count ** 2
            for _ in range(OBJECTIVE_EVALS):
                self.items.append({
                    "label": f"eval {label}", "kind": "eval", "source": index,
                    "theta": rng.uniform(-math.pi, math.pi, params),
                    "sample": float(rng.random()),
                })
        self.objectives: dict[int, Callable[[np.ndarray], float]] = {}
        self.reference: dict[int, float] = {}

    @staticmethod
    def _source(text: str, cut: str, entropy: float) -> dict:
        return {"text": text, "cut": cut, "entropy": entropy,
                "state": ketparse.parse_state(text),
                "partition": Partition.from_string(cut)}

    @classmethod
    def _paper_source(cls, rng, ket: str, cut: str) -> dict:
        """A reference state relabelled as in extremize; entropy is invariant."""
        partition = Partition.from_string(cut)
        entropy = entanglement.schmidt_spectrum(
            ketparse.parse_state(ket), partition
        ).entropy_bits
        return cls._source(relabelled_ket(rng, ket, partition), cut, entropy)

    @classmethod
    def _bunched_source(cls, rng, kind: str, counts) -> dict:
        if kind == "noon":
            (photons,) = counts
            return cls._source(noon_ket(rng, photons), "0|1", 1.0)
        order = rng.permutation(len(counts))
        occ = tuple(int(counts[j]) for j in order)
        side_a = [i for i in range(len(occ)) if order[i] < max(1, len(occ) // 2)]
        side_b = [i for i in range(len(occ)) if i not in side_a]
        cut = ",".join(map(str, side_a)) + "|" + ",".join(map(str, side_b))
        return cls._source(comma_ket(occ), cut, 0.0)

    def execute(self, item):
        kind, index = item["kind"], item["source"]
        if kind == "cli":
            return run_cli_captured(item["argv"])
        if kind == "build":
            source = self.sources[index]
            objective = optimize.entropy_objective(source["state"], source["partition"])
            self.objectives[index] = objective
            return objective
        return self.objectives[index](item["theta"])

    def check(self, index: int, item, answer) -> str | None:
        source = self.sources[item["source"]]
        if item["kind"] == "cli":
            return self._check_entropy(read_cli_report(answer)["entropy_bits"], source)
        if item["kind"] == "build":
            return self._check_entropy(
                answer(np.zeros(source["state"].mode_count ** 2)), source
            )
        seen = self.reference.get(index)
        if seen is not None:
            return None if seen == answer else \
                "value differs from the checked value of the first pass"
        reason = check_objective_value(source["state"], source["partition"],
                                       item["theta"], answer, item["sample"])
        if reason is None:
            self.reference[index] = answer
        return reason

    @staticmethod
    def _check_entropy(value: float, source) -> str | None:
        error = abs(value - source["entropy"])
        if not error <= CHECK_TOL:
            return f"entropy {value!r} misses {source['entropy']!r} by {error:.3e}"
        return None


def _random_occupation(rng, modes: int, photons: int) -> tuple[int, ...]:
    """Uniform over compositions of `photons` into `modes` parts."""
    bars = np.sort(rng.choice(photons + modes - 1, modes - 1, replace=False))
    edges = np.concatenate(([-1], bars, [photons + modes - 1]))
    return tuple(int(c) for c in np.diff(edges) - 1)


def _shape_occupations(rng, kind, modes, photons, terms):
    occs: set[tuple[int, ...]] = set()
    if kind == "vacuum-pairs":
        occs.add((0,) * modes)
    while len(occs) < terms:
        if kind == "comma":
            occ = list(_random_occupation(rng, modes - 1, photons - 10))
            occ.insert(int(rng.integers(modes)), 0)
            occ[int(rng.integers(modes))] += 10
            occs.add(tuple(occ))
        else:
            occs.add(_random_occupation(rng, modes, photons))
    return sorted(occs)


def _render_term(rng, occ) -> str:
    modulus = rng.uniform(0.2, 1.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    ket = comma_ket(occ) if max(occ) > 9 else "|" + "".join(map(str, occ)) + ">"
    return (f"({modulus * math.cos(phase):.6f}{modulus * math.sin(phase):+.6f}i)"
            f"*{ket}")


class Rewrite:
    """Library rewrites with analysis and rendering; no optimizer."""

    name = "rewrite"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.items = []
        for _ in range(REWRITE_DRAWS):
            for kind, modes, photons, terms in REWRITE_SHAPES:
                occs = _shape_occupations(rng, kind, modes, photons, terms)
                order = rng.permutation(modes)
                split = int(rng.integers(1, modes))
                self.items.append({
                    "label": f"{kind} M={modes} N={photons} terms={terms}",
                    "text": " + ".join(_render_term(rng, occ) for occ in occs),
                    "theta": rng.uniform(-math.pi, math.pi, modes * modes),
                    "partition": Partition(
                        tuple(sorted(int(i) for i in order[:split])),
                        tuple(sorted(int(i) for i in order[split:])),
                    ),
                    "sample": float(rng.random()),
                })
        self.reference: dict[int, tuple[str, float]] = {}

    def execute(self, item):
        state = ketparse.parse_state(item["text"])
        unitary = transform.exp_map(item["theta"])
        rewritten = transform.apply_redefinition(state, unitary)
        spectrum = entanglement.schmidt_spectrum(rewritten, item["partition"])
        bound = entanglement.rank_bound(rewritten, item["partition"])
        return state, unitary, rewritten, spectrum, bound, ketparse.format_state(rewritten)

    def check(self, index: int, item, answer) -> str | None:
        """Full check on first sight; later passes must repeat that answer."""
        state, unitary, rewritten, spectrum, bound, text = answer
        seen = self.reference.get(index)
        if seen is not None:
            if seen != (text, spectrum.entropy_bits):
                return "answer differs from the checked answer of the first pass"
            return None
        reason = check_rewrite(state, unitary, rewritten, spectrum, bound, text,
                               item["sample"])
        if reason is None:
            self.reference[index] = (text, spectrum.entropy_bits)
        return reason


def check_rewrite(state: PureState, unitary: ModeUnitary, rewritten: PureState,
                  spectrum, bound: int, text: str, sample: float) -> str | None:
    """Norm, rank bound, one amplitude against the permanent oracle, and the
    render/parse round trip."""
    norm_error = abs(rewritten.norm() - 1.0)
    if not norm_error <= CHECK_TOL:
        return f"norm changed by {norm_error:.3e}"
    if not spectrum.numerical_rank <= bound:
        return f"numerical rank {spectrum.numerical_rank} exceeds bound {bound}"
    support = rewritten.support()
    target = support[int(sample * len(support))]
    expected = sum(
        amp * transform.fock_matrix_element(unitary, target, occ)
        for occ, amp in state.amplitudes.items()
        if sum(occ) == sum(target)
    )
    amp_error = abs(rewritten.amplitudes[target] - expected)
    if not amp_error <= CHECK_TOL:
        return f"amplitude of {target} off the permanent oracle by {amp_error:.3e}"
    deficit = 1.0 - abs(inner_product(ketparse.parse_state(text), rewritten))
    if not deficit <= CHECK_TOL:
        return f"render/parse round trip overlap deficit {deficit:.3e}"
    return None


def check_objective_value(state: PureState, partition: Partition, theta,
                          value: float, sample: float) -> str | None:
    """The objective's value against the sparse rewrite at the same point,
    itself checked as in rewrite (norm, rank bound, permanent oracle, round
    trip)."""
    unitary = transform.exp_map(theta)
    rewritten = transform.apply_redefinition(state, unitary)
    spectrum = entanglement.schmidt_spectrum(rewritten, partition)
    reason = check_rewrite(state, unitary, rewritten, spectrum,
                           entanglement.rank_bound(rewritten, partition),
                           ketparse.format_state(rewritten), sample)
    if reason is not None:
        return reason
    error = abs(value - spectrum.entropy_bits)
    if not error <= CHECK_TOL:
        return f"objective {value!r} off the rewritten entropy by {error:.3e}"
    return None


WORKLOADS = {cls.name: cls for cls in (Extremize, Bunched, Rewrite, Objective)}
