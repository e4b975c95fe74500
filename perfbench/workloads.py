"""The benchmark's three workloads and their output checks.

Each workload is driven in passes by ``run.py``: ``setup()`` builds the
program objects (timed as a set-up sample), ``run_pass()`` runs them (timed
as a wall sample), then ``check_pass()`` checks that pass's outputs, and
``check_run()`` makes the costlier independent checks once, after the
timed loop and after peak memory is read.

Program code is reached through module attributes (``topology.ring_topology``,
not a name imported at load time), so a traced run's wrappers see every
call.  The seed makes every input here; the program only receives them.
"""

from __future__ import annotations

import importlib
import math
import shutil
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np


def program(name: str):
    """A module of the program by dotted name under ``repro``.

    ``import repro.a.b as m`` can bind a function the package re-exports
    under the submodule's name; the module table cannot.
    """
    return importlib.import_module(f"repro.{name}")


def same(a, b, tol: float = 0.0) -> bool:
    """Structural equality of report rows: exact, or within ``tol``.

    NaN equals NaN (an all-stalled cell reports NaN staleness on both
    sides); arrays compare element-wise.
    """
    if is_dataclass(a) and is_dataclass(b):
        return type(a) is type(b) and same(asdict(a), asdict(b), tol)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], tol) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape:
            return False
        if tol == 0.0:
            return bool(np.array_equal(a, b, equal_nan=True))
        return bool(np.allclose(a, b, rtol=tol, atol=tol, equal_nan=True))
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return a == b
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or abs(a - b) <= tol * max(1.0, abs(a), abs(b))
    return a == b


#: Row fields reduced over the batch of the engine run that made them: their
#: last bits follow the batch width, so rows from differently composed
#: batches (a direct sweep against one-cell batches) compare them to 1e-12.
BATCH_REDUCED = ("missing_rate",)


def same_rows(a, b, tol: float = 0.0) -> bool:
    """Report rows equal field by field (``BATCH_REDUCED`` to 1e-12)."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        x, y = asdict(x), asdict(y)
        if x.keys() != y.keys():
            return False
        for key in x:
            limit = max(tol, 1e-12) if key in BATCH_REDUCED else tol
            if not same(x[key], y[key], limit):
                return False
    return True


def regression_data(rng: np.random.Generator, n: int, x_star: np.ndarray):
    """Consistent regression rows: agent i holds one row, b_i = A_i x*."""
    designs = rng.normal(size=(n, 1, x_star.size))
    return designs, designs[:, 0, :] @ x_star


def cost_stack(designs: np.ndarray, responses: np.ndarray):
    """The program's stacked least-squares costs for the given rows."""
    from repro.functions.batched import stack_costs
    from repro.functions.least_squares import LeastSquaresCost

    return stack_costs(
        [
            LeastSquaresCost(designs[i], responses[i : i + 1])
            for i in range(designs.shape[0])
        ]
    )


def honest_estimates_ok(final, box, x_star, radius):
    """Finite, inside the box and within ``radius`` of ``x_star``."""
    return bool(
        np.isfinite(final).all()
        and (np.abs(final) <= box).all()
        and np.linalg.norm(final - x_star, axis=-1).max() < radius
    )


class PaperSweeps:
    """The four CLI sweep families, orchestrated cold then warm.

    Calls mirror ``repro-experiments <family> --iterations T
    --checkpoint-dir DIR --checkpoint-every 50``: Table 1 at the paper's
    500 rounds, the three other families at half the CLI's default
    rounds, so a pass (cold then warm) fits a run twice; the seed is the
    sweeps' ``--seed``.
    """

    name = "paper_sweeps"
    checkpoint_every = 50
    iterations = {
        "table1": 500,
        "asynchronous": 100,
        "decentralized": 150,
        "decentralized-delay": 150,
    }
    #: The paper's x_H (Appendix J.3) and the tolerance it is printed to.
    paper_x_h = (1.0780, 0.9825)
    x_h_tolerance = 5e-5

    def __init__(self, seed: int, work_dir: Path):
        self.seed = int(seed)
        self.work_dir = work_dir
        self.passes = 0
        self.last_cold: Dict[str, list] = {}

    def setup(self):
        from repro.experiments import paper_regression

        return paper_regression.paper_problem()

    def _families(self, problem, config):
        asynchronous = program("experiments.asynchronous")
        decentralized = program("experiments.decentralized")
        delay = program("experiments.decentralized_delay")
        table1 = program("experiments.table1")

        seeds = (self.seed,)
        it = self.iterations
        return [
            (
                "table1",
                lambda: table1.orchestrated_table1(
                    iterations=it["table1"], seed=self.seed, config=config
                ),
                lambda rows: table1.render_table1(
                    rows, epsilon=problem.epsilon
                ),
            ),
            (
                "asynchronous",
                lambda: asynchronous.orchestrated_asynchronous_sweep(
                    iterations=it["asynchronous"],
                    seeds=seeds,
                    engine="batched",
                    config=config,
                ),
                lambda rows: asynchronous.render_asynchronous_report(
                    rows, iterations=it["asynchronous"]
                ),
            ),
            (
                "decentralized",
                lambda: decentralized.orchestrated_decentralized_sweep(
                    iterations=it["decentralized"], seeds=seeds, config=config
                ),
                lambda rows: decentralized.render_decentralized_report(
                    rows, iterations=it["decentralized"]
                ),
            ),
            (
                "decentralized-delay",
                lambda: delay.orchestrated_decentralized_delay_sweep(
                    iterations=it["decentralized-delay"],
                    seeds=seeds,
                    engine="batched",
                    config=config,
                ),
                lambda rows: delay.render_decentralized_delay_report(
                    rows, iterations=it["decentralized-delay"]
                ),
            ),
        ]

    def run_pass(self, problem):
        from repro.experiments.orchestrator import OrchestratorConfig

        store = self.work_dir / f"store-{self.passes}"
        self.passes += 1
        config = OrchestratorConfig(
            jobs=1,
            checkpoint_dir=str(store),
            checkpoint_every=self.checkpoint_every,
        )
        results = {}
        for phase in ("cold", "warm"):
            for family, sweep, render in self._families(problem, config):
                rows, report = sweep()
                results[phase, family] = (rows, report, render(rows))
        return results

    def agent_rounds(self, problem, results) -> int:
        total = 0
        for family, iterations in self.iterations.items():
            rows = results["cold", family][0]
            trials = sum(getattr(row, "seeds", 1) for row in rows)
            total += trials * problem.n * iterations
        return total

    def check_pass(self, problem, results) -> Tuple[int, int, List[str]]:
        attempted, failed, failures = 0, 0, []
        for (phase, family), (rows, report, text) in results.items():
            cells = len(report.outcomes)
            attempted += cells
            bad = [
                o.key
                for o in report.outcomes
                if o.status not in ("completed", "cached")
            ] + [cell["key"] for cell in report.quarantined_cells]
            if bad:
                failed += len(bad)
                failures.append(f"{phase} {family}: failed/quarantined {bad}")
            if phase == "warm":
                cold_rows, _, cold_text = results["cold", family]
                if not same(rows, cold_rows) or text != cold_text:
                    failed += cells
                    failures.append(f"{family}: warm rows differ from cold")
        for row in results["cold", "table1"][0]:
            if not row.distance < problem.epsilon:
                failed += 1
                failures.append(
                    f"table1 {row.aggregator}/{row.attack}: dist "
                    f"{row.distance} >= eps {problem.epsilon}"
                )
        self.last_cold = {
            family: results["cold", family][0]
            for family in self.iterations
        }
        shutil.rmtree(self.work_dir / f"store-{self.passes - 1}")
        return attempted, failed, failures

    def check_run(self) -> List[str]:
        asynchronous = program("experiments.asynchronous")
        decentralized = program("experiments.decentralized")
        delay = program("experiments.decentralized_delay")
        table1 = program("experiments.table1")

        problem = self.setup()
        failures = []
        gap = np.abs(problem.x_h - np.array(self.paper_x_h)).max()
        if not gap <= self.x_h_tolerance:
            failures.append(f"x_H {problem.x_h} is {gap:.2e} from the paper")

        seeds = (self.seed,)
        it = self.iterations
        direct = {
            "table1": table1.generate_table1(
                problem, iterations=it["table1"], seed=self.seed
            ),
            "asynchronous": asynchronous.asynchronous_sweep(
                iterations=it["asynchronous"], seeds=seeds
            ),
            "decentralized": decentralized.decentralized_sweep(
                iterations=it["decentralized"], seeds=seeds
            ),
            "decentralized-delay": delay.decentralized_delay_sweep(
                iterations=it["decentralized-delay"], seeds=seeds
            ),
        }
        for family, rows in direct.items():
            if not same_rows(self.last_cold[family], rows):
                failures.append(
                    f"{family}: orchestrated rows differ from the direct sweep"
                )

        # One cell of each stale-message family against its per-trial
        # reference engine: the batched asynchronous engine is pinned to
        # its oracle at 1e-9, the fused delay engine bit for bit.
        reference = asynchronous.asynchronous_sweep(
            staleness_bounds=[2],
            drop_rates=[0.15],
            aggregators=["cwtm"],
            iterations=it["asynchronous"],
            seeds=seeds,
            engine="reference",
        )
        cold = [
            r
            for r in self.last_cold["asynchronous"]
            if (r.staleness_bound, r.drop_rate, r.aggregator)
            == (2, 0.15, "cwtm")
        ]
        if not same_rows(cold, reference, tol=1e-9):
            failures.append("asynchronous cell differs from the reference")

        # The whole cell (its policy group of filters): a row's
        # missing rate is reduced over the cell's batch, and the reduction
        # order follows the batch width.
        ring = delay.default_delay_topologies(problem.n)[1]
        reference = delay.decentralized_delay_sweep(
            topologies=[ring],
            staleness_bounds=[1],
            drop_rates=[0.2],
            aggregators=["cwtm", "median"],
            iterations=it["decentralized-delay"],
            seeds=seeds,
            engine="reference",
        )
        cold = [
            r
            for r in self.last_cold["decentralized-delay"]
            if (r.topology, r.staleness_bound, r.drop_rate, r.policy)
            == (ring.name, 1, 0.2, "masked")
        ]
        if not same_rows(cold, reference):
            failures.append(
                "decentralized-delay cell differs from the reference"
            )
        return failures


class LargeGraph:
    """Decentralized CWTM under gradient reversal on a large sparse graph."""

    name = "large_graph"
    n = 8192
    degree = 4
    rounds = 300
    trace_stride = 15
    box = 3.0
    step_scale = 0.5
    #: Exact-redundancy data put the honest limit at x* itself, so the
    #: check asks the honest agents to close 90% of the initial distance.
    closing = 0.1
    prefix = 30

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.x_star = np.array([1.0, -1.0])
        self.x0 = np.zeros(2)
        self.designs, self.responses = regression_data(
            rng, self.n, self.x_star
        )
        self.topology_seed = int(rng.integers(2**31))
        self.trial_seed = int(rng.integers(2**31))
        self.faulty = (int(rng.integers(self.n)),)
        self.last_trace = None

    def _trial(self):
        from repro.aggregators.registry import make_aggregator
        from repro.attacks.registry import make_attack
        from repro.distsys.batch import BatchTrial

        return BatchTrial(
            aggregator=make_aggregator("cwtm", self.n, len(self.faulty)),
            attack=make_attack("gradient_reverse"),
            faulty_ids=self.faulty,
            seed=self.trial_seed,
        )

    def _common(self):
        from repro.optim.projections import BoxSet
        from repro.optim.schedules import HarmonicSchedule

        return (
            BoxSet.symmetric(self.box, dim=2),
            HarmonicSchedule(scale=self.step_scale),
            self.x0,
        )

    def setup(self):
        decentralized = program("distsys.decentralized")
        topology = program("distsys.topology")

        costs = cost_stack(self.designs, self.responses)
        graph = topology.random_regular_topology(
            self.n, degree=self.degree, seed=self.topology_seed
        )
        return decentralized.DecentralizedSimulator(
            costs,
            graph,
            [self._trial()],
            *self._common(),
            trace_rounds=self.trace_stride,
        )

    def run_pass(self, engine):
        # No consensus gap here: it is a pairwise (h, h, d) reduction,
        # gigabytes at this n, and would measure itself, not the engine.
        trace = engine.run(self.rounds)
        return {"trace": trace, "radii": trace.distances_to(self.x_star)}

    def agent_rounds(self, engine, outcome) -> int:
        return self.n * self.rounds * len(engine.trials)

    def check_pass(self, engine, outcome) -> Tuple[int, int, List[str]]:
        trace = outcome["trace"]
        honest = [i for i in range(self.n) if i not in self.faulty]
        initial = float(np.linalg.norm(self.x0 - self.x_star))
        failures = []
        if trace.quarantined:
            failures.append(f"quarantined: {trace.quarantined}")
        final = trace.estimates[-1, 0, honest]
        if not honest_estimates_ok(
            final, self.box, self.x_star, self.closing * initial
        ):
            failures.append(
                f"final honest radius {outcome['radii'][0, -1]:.4f} not "
                f"below {self.closing} x initial {initial:.4f}"
            )
        self.last_trace = trace
        return 1, int(bool(failures)), failures

    def check_run(self) -> List[str]:
        import scipy.sparse
        from scipy.sparse.csgraph import connected_components

        decentralized_delay = program("distsys.decentralized_delay")
        topology = program("distsys.topology")

        failures = []
        graph = topology.random_regular_topology(
            self.n, degree=self.degree, seed=self.topology_seed
        )
        adjacency = graph.adjacency
        if not np.array_equal(adjacency, adjacency.T):
            failures.append("graph is not symmetric")
        if not (adjacency.sum(axis=1) == self.degree).all():
            failures.append(f"graph is not {self.degree}-regular")
        components, _ = connected_components(
            scipy.sparse.csr_matrix(adjacency), directed=False
        )
        if components != 1:
            failures.append(f"graph has {components} components")

        # tau = 0 on a clean network is the synchronous engine: its first
        # rounds must equal the windowed run's stored rounds bit for bit.
        costs = cost_stack(self.designs, self.responses)
        delayed = decentralized_delay.DelayedDecentralizedSimulator(
            costs, graph, [self._trial()], *self._common(), staleness_bound=0
        ).run(self.prefix)
        trace = self.last_trace
        stored = trace.stored_rounds
        kept = stored[stored <= self.prefix]
        if kept.size < 2 or not np.array_equal(
            delayed.estimates[kept], trace.estimates[: kept.size]
        ):
            failures.append("tau=0 delay engine differs from the run")
        return failures


class DelayHorizon:
    """The fused delay engine over a long horizon on two sparse graphs."""

    name = "delay_horizon"
    n = 256
    rounds = 400
    delay_high = 3
    taus = (1, 3)
    drops = (0.0, 0.2)
    filters = (("cwtm", "masked"), ("cge_mean", "shrink"))
    box = 3.0
    step_scale = 0.5
    replay_rounds = 30
    #: trials replayed through the per-trial engine: masked CWTM on the
    #: ring at tau 1 and shrinking CGE on the random graph at tau 3, both
    #: with drops.
    replay = (2, 15)

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.x_star = np.array([1.0, -1.0])
        self.x0 = np.zeros(2)
        self.designs, self.responses = regression_data(
            rng, self.n, self.x_star
        )
        self.topology_seed = int(rng.integers(2**31))
        self.trial_seed = int(rng.integers(2**31))
        self.faulty = (int(rng.integers(self.n)),)
        self.grid = [
            (kind, tau, drop, aggregator, policy)
            for kind in ("ring", "random_regular")
            for tau in self.taus
            for drop in self.drops
            for aggregator, policy in self.filters
        ]
        self.replayed: Dict[int, np.ndarray] = {}
        self.last_final = None

    def _conditions(self, drop):
        from repro.distsys.faults import IIDDrop, LinkDelay, uniform_delay

        conditions = [LinkDelay(uniform_delay(0, self.delay_high))]
        if drop > 0:
            conditions.append(IIDDrop(drop))
        return tuple(conditions)

    def _topologies(self):
        topology = program("distsys.topology")

        return {
            "ring": topology.ring_topology(self.n, hops=2),
            "random_regular": topology.random_regular_topology(
                self.n, degree=4, seed=self.topology_seed
            ),
        }

    def _common(self):
        from repro.optim.projections import BoxSet
        from repro.optim.schedules import HarmonicSchedule

        return dict(
            constraint=BoxSet.symmetric(self.box, dim=2),
            schedule=HarmonicSchedule(scale=self.step_scale),
            initial_estimate=self.x0,
        )

    def setup(self):
        fused = program("distsys.batch_decentralized_delay")
        from repro.aggregators.registry import make_aggregator
        from repro.attacks.registry import make_attack

        costs = cost_stack(self.designs, self.responses)
        graphs = self._topologies()
        trials = [
            fused.DelayBatchTrial(
                aggregator=make_aggregator(
                    aggregator, self.n, len(self.faulty)
                ),
                topology=graphs[kind],
                attack=make_attack("gradient_reverse"),
                faulty_ids=self.faulty,
                conditions=self._conditions(drop),
                staleness_bound=tau,
                missing_policy=policy,
                seed=self.trial_seed,
                label=f"{kind}/tau{tau}/drop{drop}/{aggregator}",
            )
            for kind, tau, drop, aggregator, policy in self.grid
        ]
        return fused.BatchDelayedDecentralizedSimulator(
            costs=costs, trials=trials, **self._common()
        )

    def run_pass(self, engine):
        trace = engine.run(self.rounds)
        return {
            "trace": trace,
            "radii": trace.distances_to(self.x_star, rounds=[-1])[:, -1],
            "gaps": trace.consensus_gap(rounds=[-1])[:, -1],
            "missing": trace.missing_fraction().mean(axis=1),
            "staleness": trace.staleness_profile(),
            "stalls": trace.stalled_agent_rounds(),
        }

    def agent_rounds(self, engine, outcome) -> int:
        return self.n * self.rounds * len(engine.trials)

    def check_pass(self, engine, outcome) -> Tuple[int, int, List[str]]:
        trace = outcome["trace"]
        honest = [i for i in range(self.n) if i not in self.faulty]
        initial = float(np.linalg.norm(self.x0 - self.x_star))
        quarantined = {int(r["trial"]) for r in trace.quarantined}
        failures = []
        bad = set()
        for index, (_, tau, *_rest) in enumerate(self.grid):
            label = trace.labels[index]
            if index in quarantined:
                failures.append(f"{label}: quarantined")
                bad.add(index)
                continue
            final = trace.estimates[-1, index, honest]
            if not honest_estimates_ok(final, self.box, self.x_star, initial):
                failures.append(
                    f"{label}: final radius {outcome['radii'][index]:.4f} "
                    f"not below the initial {initial:.4f}"
                )
                bad.add(index)
        self.replayed = {
            index: trace.estimates[: self.replay_rounds + 1, index].copy()
            for index in self.replay
        }
        self.last_final = trace.estimates[-1].copy()
        return len(self.grid), len(bad), failures

    def message_ages(self) -> Tuple[np.ndarray, np.ndarray]:
        """Replay the fused run, recording the oldest message each trial used.

        ``observe`` hands the later stages each receiver's view: the send
        round of the message in every neighbour slot, with ``valid``
        marking the slots that carry one.  The age of a used message is
        the round minus its send round.  Returns the per-trial maximum
        age over the whole horizon and the replay's final estimates.
        """
        engine = self.setup()
        observe = engine.observe
        oldest = np.zeros(len(self.grid), dtype=int)

        def observe_and_age():
            current = observe()
            views = current.extras["views"]
            ages = np.where(
                current.extras["valid"], current.iteration - views, 0
            )
            np.maximum(oldest, ages.max(axis=(1, 2)), out=oldest)
            return current

        engine.observe = observe_and_age
        trace = engine.run(self.rounds)
        return oldest, trace.estimates[-1]

    def check_run(self) -> List[str]:
        decentralized_delay = program("distsys.decentralized_delay")
        from repro.aggregators.registry import make_aggregator
        from repro.attacks.registry import make_attack
        from repro.distsys.batch import BatchTrial

        failures = []
        # No message used older than its trial's tau, message by message,
        # on a replay that must end where the timed passes ended.
        oldest, final = self.message_ages()
        if not np.array_equal(final, self.last_final):
            failures.append("the age replay differs from the timed run")
        for index, (kind, tau, drop, aggregator, _) in enumerate(self.grid):
            if oldest[index] > tau:
                failures.append(
                    f"trial {index} ({kind}/tau{tau}/drop{drop}/{aggregator})"
                    f" used a message {oldest[index]} rounds old"
                )

        costs = cost_stack(self.designs, self.responses)
        graphs = self._topologies()
        for index in self.replay:
            kind, tau, drop, aggregator, policy = self.grid[index]
            trace = decentralized_delay.DelayedDecentralizedSimulator(
                costs,
                graphs[kind],
                [
                    BatchTrial(
                        aggregator=make_aggregator(
                            aggregator, self.n, len(self.faulty)
                        ),
                        attack=make_attack("gradient_reverse"),
                        faulty_ids=self.faulty,
                        seed=self.trial_seed,
                    )
                ],
                conditions=self._conditions(drop),
                staleness_bound=tau,
                missing_policy=policy,
                **self._common(),
            ).run(self.replay_rounds)
            if not np.array_equal(trace.estimates[:, 0], self.replayed[index]):
                failures.append(
                    f"trial {index} ({kind}/tau{tau}/drop{drop}/{aggregator}) "
                    "differs from the per-trial engine"
                )
        return failures


WORKLOADS = {w.name: w for w in (PaperSweeps, LargeGraph, DelayHorizon)}
