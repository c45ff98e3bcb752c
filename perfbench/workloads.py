"""The four benchmark workloads: inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Operations come in fixed cycles and a
run always completes whole cycles, so the mix of operation kinds (and every
count derived from it) is the same in every run.

* ``cli_cold``: cold ``fscontract`` subprocesses on generated config files.
* ``market_sweep``: 41-point mark-up sweeps of the full model.
* ``long_horizon``: validation and pricing on horizons of 300-2400 periods.
"""

from __future__ import annotations

import importlib
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import speed

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


def child_env(root: Path) -> dict:
    """Environment of a child interpreter: the checkout's package, untraced."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("FSBENCH_TRACE", None)
    return env


@dataclass
class Op:
    """One operation of a cycle.

    ``points`` is the number of priced KPI points a successful run yields
    (sweep rows, comparison rows or one pricing solution).  ``base`` groups
    the operations that share a base scenario for the oracle checks.
    """

    label: str
    points: int
    base: int = -1
    fn: object = None
    cli: dict | None = None


@dataclass
class Record:
    """What one executed operation produced."""

    op: Op
    seconds: float
    result: object = None
    error: str = ""
    rss_kb: int = 0
    problems: list = field(default_factory=list)
    #: Time of the speed reference loop run right after the operation.
    ref_seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)

    @property
    def reason(self) -> str:
        """The first problem, or the last line of the uncaught error."""
        return self.problems[0] if self.problems else self.error.strip().splitlines()[-1]


def run_cycles(workload, seconds: float) -> list[Record]:
    """Run whole cycles until ``seconds`` of wall time have passed.

    A cycle is ``workload.cycle_len`` consecutive ops of ``workload.cycle``,
    taken round-robin.  The workload's speed reference runs after every op,
    outside its timing.
    """
    records = []
    ops, n = workload.cycle, workload.cycle_len
    start = time.perf_counter()
    while True:
        for _ in range(n):
            rec = workload.execute(ops[len(records) % len(ops)], len(records))
            rec.ref_seconds = workload.reference()
            records.append(rec)
        if time.perf_counter() - start >= seconds:
            return records


class InProcess:
    """market_sweep and long_horizon: calls into the library."""

    reference = staticmethod(speed.reference)
    reference_s = speed.REFERENCE_S

    def __init__(self, name: str, seed: int, root: Path, work: Path):
        self.name, self.seed, self.root, self.work = name, seed, root, work
        self.fc = None
        self.cycle: list[Op] = []
        self.scenarios: list = []

    def setup(self) -> None:
        """Import, generate and load the inputs, and run one discarded op."""
        fc = self.fc = importlib.import_module("fscontract")
        importlib.import_module("fscontract.cli")
        jobs = gen.GENERATORS[self.name](self.seed)
        table = str(fc.INTERNAL_RATE_TABLE_PATH)
        self.work.mkdir(parents=True, exist_ok=True)
        for b, job in enumerate(jobs):
            path = self.work / f"base_{b}.cfg"
            path.write_text(gen.config_text(job["spec"], table), encoding="utf-8")
            self.scenarios.append(fc.load_scenario(path))
        build = getattr(self, f"_ops_{self.name}")
        for b, (job, s) in enumerate(zip(jobs, self.scenarios)):
            self.cycle += build(b, job, s)
        self.cycle_len = len(self.cycle)
        self.execute(self.cycle[0], -1)

    # Functions are looked up on the package at call time, so the tracer's
    # wrappers (installed after setup) see every call.

    def _sweep_op(self, b, s, param, values):
        spec = self.fc.SweepSpec(param=param, values=tuple(values))
        return Op(f"sweep:{param}", len(values), b, lambda: self.fc.sweep(spec, s))

    def _ops_market_sweep(self, b, job, s):
        return [self._sweep_op(b, s, "beta", job["betas"])]

    def _ops_long_horizon(self, b, job, s):
        # One op prices one scenario end to end.  Single calls would put the
        # median on 2-ms validate/auto/bench calls of the largest horizons,
        # whose times interleave, and off the lf search.
        spec = self.fc.SweepSpec(param="unit_training_cost",
                                 values=tuple(job["unit_training_cost"]))

        def price_scenario():
            fc = self.fc
            return (fc.validate_scenario(s),
                    [fc.optimal_price(s, v) for v in ("full", "auto", "bench")],
                    fc.sweep(spec, s))

        return [Op(f"scenario:z{s.grid.z_periods}", 3 + len(spec.values), b, price_scenario)]

    def execute(self, op: Op, index: int) -> Record:
        t0 = time.perf_counter()
        try:
            result = op.fn()
        except Exception:  # an uncaught program error is a failed operation
            return Record(op, time.perf_counter() - t0, error=traceback.format_exc())
        elapsed = time.perf_counter() - t0
        # Checked here, after the timed call, so a run keeps only a digest of
        # each result and its memory does not grow with the number of ops.
        return Record(op, elapsed, hash(repr(result)), problems=self._problems(op, result))

    @staticmethod
    def _problems(op: Op, result) -> list[str]:
        if not op.label.startswith("scenario:"):
            return checks.check_rows(result)
        violations, solutions, rows = result
        problems = [f"{op.label}: valid scenario reported {violations}"] if violations else []
        for sol in solutions:
            problems += checks.check_solution(sol, f"{op.label} {sol.variant}")
        return problems + checks.check_rows(rows)

    def check(self, records: list[Record]) -> list[str]:
        """Attach problems to the records they concern and return every
        wrong output; all inputs here are well-formed, so any miss is one."""
        fc = self.fc
        first: dict[int, int] = {}
        cycle_pos = {id(op): i for i, op in enumerate(self.cycle)}
        for rec in records:
            # Identical inputs must give identical outputs within a run.
            pos = cycle_pos[id(rec.op)]
            if not rec.error and first.setdefault(pos, rec.result) != rec.result:
                rec.problems.append(f"{rec.op.label}: output differs from the first run")
        run_problems = checks.check_documented_table(fc.compare_models(fc.default_scenario()))
        base_problems = {b: checks.check_base(fc, s, f"{self.name} base {b}")
                         for b, s in enumerate(self.scenarios)}
        wrong = run_problems + [p for ps in base_problems.values() for p in ps]
        for rec in records:
            wrong += rec.problems + rec.error.strip().splitlines()[-1:]
            rec.problems += run_problems + base_problems[rec.op.base]
        return wrong


class CliCold:
    """cli_cold: one fresh interpreter per operation, on config files."""

    reference = staticmethod(speed.process_reference)
    reference_s = speed.PROCESS_REFERENCE_S

    def __init__(self, name: str, seed: int, root: Path, work: Path):
        self.name, self.seed, self.root, self.work = name, seed, root, work
        self.fc = None
        self.cycle: list[Op] = []
        self.trace_dir: Path | None = None
        self.env = child_env(root)

    def setup(self) -> None:
        """Import, write the config files, and run one discarded op."""
        fc = self.fc = importlib.import_module("fscontract")
        importlib.import_module("fscontract.cli")
        table = str(fc.INTERNAL_RATE_TABLE_PATH)
        cfg_dir = self.work / "cfg"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for spec in gen.cli_cold(self.seed):
            name = "baseline" if spec["base"] < 0 else f"base_{spec['base']}"
            if spec["edit"] is not None:
                name += "_" + spec["edit"][0].replace(".", "_")
            path = cfg_dir / f"{name}.cfg"
            if not path.exists():
                path.write_text(gen.config_text(spec["spec"], table, spec["edit"]),
                                encoding="utf-8")
            self.cycle.append(self._op(spec, path))
        self.cycle_len = len(gen.CLI_CYCLE)
        self.execute(self.cycle[0], -1)

    @staticmethod
    def _op(spec: dict, path: Path) -> Op:
        command, option = spec["command"], spec["option"]
        argv = ["--config", str(path)]
        points = 1
        if command in ("price", "baseline", "nonfinite", "reject"):
            argv = ["price"] + argv + ["--variant", option]
        elif command == "optimize-lf":
            argv = ["optimize-lf"] + argv
        elif command == "compare":
            argv = ["compare"] + argv + ["--format", option]
            points = 3
        else:
            param, values = spec["values"]
            argv = ["sweep"] + argv + ["--param", param, "--format", option,
                                       "--values", ",".join(repr(v) for v in values)]
            points = len(values)
        if command in ("nonfinite", "reject"):
            points = 0
        label = f"{command}:{option}" if option else command
        return Op(label, points, spec["base"], cli={
            "argv": argv, "config": str(path), "command": command, "option": option,
            "values": spec["values"]})

    def execute(self, op: Op, index: int) -> Record:
        out = self.work / "out" / str(index)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = list(op.cli["argv"])
        if op.cli["command"] in ("compare", "sweep"):
            argv += ["--out", str(out)]
        env = self.env
        if self.trace_dir is not None:
            env = dict(env, FSBENCH_TRACE=str(self.trace_dir / f"{index}.json"))
        with open(out / "stdout", "wb") as so, open(out / "stderr", "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(LAUNCHER)] + argv, stdout=so,
                                    stderr=se, cwd=self.root, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = (proc.returncode, (out / "stdout").read_text(errors="replace"),
                  (out / "stderr").read_text(errors="replace"), out)
        return Record(op, elapsed, result, rss_kb=usage.ru_maxrss)

    def _expected(self, op: Op, cache: dict):
        """In-process reference for a well-formed op: (outcome, payload)."""
        key = tuple(op.cli["argv"])
        if key in cache:
            return cache[key]
        fc = self.fc
        command, option = op.cli["command"], op.cli["option"]
        try:
            s = fc.load_scenario(op.cli["config"])
            if command in ("price", "baseline"):
                sol = fc.optimal_price(s, option)
                payload = {"price": sol.price, "profit": sol.profit, "fs_share": sol.fs_share,
                           "lower_bound": sol.lower_bound, "upper_bound": sol.upper_bound,
                           "cost_total": sol.breakdown.total, "m_count": sol.m_count}
                if sol.lf_star is not None:
                    payload["lf_star"] = sol.lf_star
                problems = checks.check_solution(sol, op.label)
            elif command == "optimize-lf":
                internal = fc.internal_rate_series(s.failure, s.grid)
                external = fc.simulate_external_rates(s)
                m = fc.optimal_pm_count(s, internal).m_count
                sol = fc.optimize_lf(m, s, internal, external)
                payload = {"lf_star": sol.lf_star, "cost_at_star": sol.cost_at_star,
                           "m_count": m}
                problems = []
            else:
                if command == "compare":
                    records = fc.compare_models(s)
                    name = "compare.csv" if option == "csv" else "compare.md"
                else:
                    param, values = op.cli["values"]
                    param = {"beta": "beta", "phi-int": "phi_int_mean"}[param]
                    records = fc.sweep(fc.SweepSpec(param=param, values=tuple(values)), s)
                    name = f"sweep_{param}.{option}"
                ref = self.work / "expected"
                ref.mkdir(exist_ok=True)
                fc.emit_report(records, "markdown" if option == "markdown" else option,
                               ref / name)
                payload = (name, (ref / name).read_bytes())
                problems = checks.check_rows(records)
            cache[key] = ("ok", payload, problems)
        except (fc.ConfigError, fc.ScenarioValidationError):
            cache[key] = ("rejected", 1, [])
        except (fc.InfeasibleTrainingError, fc.InfeasiblePriceError, fc.ConvergenceError):
            cache[key] = ("rejected", 2, [])
        return cache[key]

    def check(self, records: list[Record]) -> list[str]:
        """Classify every run and compare well-formed ones with the library.

        Malformed configs must end in a documented rejection; a traceback or
        a non-finite KPI there is a failed operation (a robustness defect of
        the program), not a wrong answer.  Any miss on a well-formed config
        is a wrong answer and is also returned as a run-level problem.
        """
        fc = self.fc
        cache: dict = {}
        wrong = []
        for rec in records:
            rc, stdout, stderr, out = rec.result
            outcome, reason = checks.classify(rc, stdout, stderr)
            malformed = rec.op.cli["command"] in ("nonfinite", "reject")
            if outcome == "failed":
                rec.problems.append(f"{rec.op.label}: {reason}")
            elif malformed:
                if outcome != "rejected":
                    rec.problems.append(f"{rec.op.label}: malformed config accepted")
            else:
                want, payload, problems = self._expected(rec.op, cache)
                rec.problems += problems
                if want != outcome or (want == "rejected" and rc != payload):
                    rec.problems.append(f"{rec.op.label}: outcome {outcome}/{rc}, "
                                        f"library says {want}")
                elif outcome == "ok":
                    rec.problems += self._compare(rec.op, stdout, out, payload)
            if not malformed:
                wrong += rec.problems
        table = checks.check_documented_table(fc.compare_models(fc.default_scenario()))
        configs = {op.base: op.cli["config"] for op in self.cycle
                   if op.cli["command"] not in ("nonfinite", "reject")}
        base_problems = {b: checks.check_base(fc, fc.load_scenario(path), f"cli_cold base {b}")
                         for b, path in sorted(configs.items())}
        for rec in records:
            rec.problems += table + base_problems.get(rec.op.base, [])
        return wrong + table + [p for ps in base_problems.values() for p in ps]

    @staticmethod
    def _compare(op: Op, stdout: str, out: Path, payload) -> list[str]:
        if isinstance(payload, dict):
            printed = checks.printed_values(stdout)
            problems = [f"{op.label}: {k} = {printed.get(k)!r}, library says {v!r}"
                        for k, v in payload.items()
                        if k not in printed or not checks.close(printed[k], v)]
            if op.cli["command"] == "baseline":
                want = checks.DOCUMENTED_TABLE["full"][0]
                if abs(printed.get("price", float("nan")) - want) > checks.TABLE_TOLERANCE[0]:
                    problems.append(f"baseline price {printed.get('price')!r} != {want}")
            return problems
        name, data = payload
        path = out / name
        if not path.is_file():
            return [f"{op.label}: missing output file {name}"]
        if path.read_bytes() != data:
            return [f"{op.label}: {name} differs from the library's emission"]
        return []


def make(name: str, seed: int, root: Path, work: Path):
    cls = CliCold if name == "cli_cold" else InProcess
    return cls(name, seed, root, work)
