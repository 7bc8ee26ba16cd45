"""Workloads, correctness checks and span tracing for the hraidlab benchmark.

Each workload builds its inputs in ``__init__`` (set-up) and does one unit
of timed work in ``run_pass``.  Every call into a public function of an
hraidlab module sits inside a span named ``<module>.<what>``; with
``NULL_TRACER`` a span is one no-op context manager, so traced and untraced
passes execute the same code.

Every operation goes through ``Checks.call`` and every verdict through
``Checks.expect``: an exception counts as one failed operation and never
aborts the run, and a wrong value also marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import math
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hraidlab as hl
from hraidlab.simulator import CHUNK_TRIALS
from hraidlab.stream import trial_keys, uniforms_at

#: Layers with a self time: the modules the workloads call directly, and
#: ``bench``, the benchmark's own code.  ``stream`` runs only inside
#: ``run_trials`` in the workloads, so its time is part of simulator's
#: self time; the traced run measures it with its own probe.
SELF_TIME_LAYERS = ("simulator", "oracle", "analytic", "layout", "codec", "bench")

#: |z| of a Monte Carlo mean against the exact chain.  Each run makes
#: about 20 such checks; a correct engine exceeds 4.5 with probability
#: about 7e-6 per check.
Z_BOUND = 4.5

#: Relative agreement of exact enumeration with the closed form.
ENUM_REL_TOL = 1e-9

#: Relative agreement of the l = 0 chain with its sum formula.
ELL0_REL_TOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    """Work per pass; ``TINY`` exists for the smoke test."""

    grid_trials: int  # Monte Carlo trials per paper-grid cell
    warm_trials: int  # trials per cell in the warm-up pass
    scale_tol: int  # k = l of the scale ladder and its Monte Carlo run
    mc_trials: int  # scale Monte Carlo trials at N = 48
    enum_max_disks: int  # enumeration sweep covers every config with NM <= this
    stream_reps: int  # repetitions of each stream call in the traced probe


FULL = Sizes(2 * CHUNK_TRIALS, 1024, 3, 2 * CHUNK_TRIALS, 64, 200)
TINY = Sizes(256, 64, 1, 512, 16, 4)


class Checks:
    """Counts operations and checks attempted and failed."""

    MAX_NOTES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def _note(self, text: str) -> None:
        if len(self.notes) < self.MAX_NOTES:
            self.notes.append(text)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self._note(f"check failed: {what}")

    def call(self, what: str, fn, *args, **kwargs):
        """Run one operation; return None if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted, reported, and the run goes on
            self.failed += 1
            self._note(f"{what} raised {type(exc).__name__}: {exc}")
            return None


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> None:
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][2] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][3] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """In-memory spans: ``[name, parent index, start, end, pass id]``.

    ``pass_id`` names the set-up, pass or probe the next spans belong to.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = ""

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, 0.0, 0.0, self.pass_id])
        return _Span(self, len(self.spans) - 1)

    def mark(self) -> int:
        return len(self.spans)

    def durations(self, name: str, lo: int = 0, hi: int | None = None) -> list[float]:
        """Durations of the spans called ``name`` among spans[lo:hi]."""
        return [e - s for n, _, s, e, _ in self.spans[lo:hi] if n == name]

    def prefixed_total(self, prefix: str, lo: int = 0, hi: int | None = None) -> float:
        return sum(e - s for n, _, s, e, _ in self.spans[lo:hi] if n.startswith(prefix))

    def self_times(self, ranges: list[tuple[int, int]]) -> dict[str, float]:
        """Self time per layer over the spans in ``ranges`` (index pairs).

        A span's self time is its duration minus that of its direct
        children; spans never overlap their siblings because the
        benchmark's own code is single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
        for lo, hi in ranges:
            for i in range(lo, hi):
                name, _, start, end, _ = self.spans[i]
                layer = name.split(".", 1)[0]
                out[layer] += (end - start) - child_time[i]
        return out

    def as_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "parent": p, "start": s, "end": e, "pass": pid}
            for i, (n, p, s, e, pid) in enumerate(self.spans)
        ]


class _NullTracer:
    _NULL = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._NULL


NULL_TRACER = _NullTracer()


def z_score(est: hl.MttdlEstimate, exact: float) -> float:
    return (est.mean_hours - exact) / (est.std_dev_hours / math.sqrt(est.trials))


class PaperGrid:
    """The paper's 16-cell table: N = M = 12, delta = 1e-6/h, gamma = 0."""

    N = M = 12
    RATES = hl.FailureModel(disk_rate=1e-6, controller_rate=0.0)
    THREADS = 1

    def __init__(self, seed: int, sizes: Sizes, tr, ck: Checks) -> None:
        self.seed, self.sizes, self.ck = seed, sizes, ck
        self.cells = []
        with tr.span("oracle.markov_mttdl.grid"):
            for k in range(4):
                for ell in range(4):
                    cfg = hl.HraidConfig(self.N, self.M, k, ell)
                    exact = ck.call(f"markov_mttdl {cfg}", hl.markov_mttdl, cfg, self.RATES)
                    self.cells.append((k, ell, cfg, hl.cell_seed(seed, k, ell), exact))

    def run_pass(self, tr, trials: int | None = None) -> tuple[hl.SweepResult, float]:
        """One sweep, assembled cell by cell exactly as ``sweep`` does.

        Returns the sweep and the mean events per trial (gamma = 0, so
        every event is a disk failure).
        """
        trials = self.sizes.grid_trials if trials is None else trials
        ck = self.ck
        cells, events = [], 0
        with tr.span("bench.pass.paper_grid"):
            for k, ell, cfg, cseed, exact in self.cells:
                with tr.span(f"simulator.cell.k{k}l{ell}"):
                    with tr.span("simulator.run_trials"):
                        res = ck.call(
                            f"run_trials {cfg}", hl.run_trials, cfg, self.RATES, trials, cseed,
                            threads=self.THREADS,
                        )
                    if res is None:
                        continue
                    with tr.span("simulator.MttdlEstimate.from_times"):
                        est = hl.MttdlEstimate.from_times(res.times_hours, cseed)
                cells.append(hl.SweepCell(k=k, ell=ell, estimate=est))
                events += int(res.disk_failures.sum())
                if exact is not None:
                    z = z_score(est, exact)
                    ck.expect(abs(z) < Z_BOUND, f"{cfg}: z = {z:.2f} against the chain")
                dmin = (k + 1) * (ell + 1)
                ck.expect(
                    int(res.disk_failures.min()) >= dmin,
                    f"{cfg}: a trial lost data with fewer than d_min = {dmin} failures",
                )
            result = hl.SweepResult(
                n=self.N, m=self.M, rates=self.RATES, trials=trials, seed=self.seed,
                cells=tuple(cells),
            )
        return result, events / (trials * len(self.cells))

    def warm_up(self) -> None:
        self.run_pass(NULL_TRACER, self.sizes.warm_trials)

    def after_passes(self, tr) -> None:
        """Nothing runs after the timed passes."""


def enum_configs(max_disks: int) -> list[hl.HraidConfig]:
    """Every valid (N, M, k, l) with N * M <= max_disks."""
    return [
        hl.HraidConfig(n, m, k, ell)
        for n in range(1, max_disks + 1)
        for m in range(1, max_disks // n + 1)
        for k in range(min(4, n))
        for ell in range(4)
        if k + ell < m
    ]


class ScaleCrosscheck:
    """Oracles against N, Monte Carlo at N = 48 on two threads, and the
    enumeration-vs-closed-form sweep over every config with NM <= 64."""

    M = 12
    RATES = hl.FailureModel(disk_rate=1e-6, controller_rate=1e-7)
    LADDER = (12, 24, 48, 96)
    MC_N = 48
    THREADS = 2
    EPS = (1e-6, 1e-3, 0.1, 0.5)

    def __init__(self, seed: int, sizes: Sizes, tr, ck: Checks) -> None:
        self.seed, self.sizes, self.ck = seed, sizes, ck
        t = sizes.scale_tol
        self.ladder = [(n, hl.HraidConfig(n, self.M, t, t)) for n in self.LADDER]
        self.mc_config = hl.HraidConfig(self.MC_N, self.M, t, t)
        # with l = 0 a node dies at its first failure, so the chain has the
        # closed form sum_{i=0..k} 1 / ((N - i)(M delta + gamma))
        node_rate = self.M * self.RATES.disk_rate + self.RATES.controller_rate
        self.ell0 = [
            (hl.HraidConfig(n, self.M, 3, 0), sum(1.0 / ((n - i) * node_rate) for i in range(4)))
            for n in self.LADDER
        ]
        self.configs = enum_configs(sizes.enum_max_disks)

    def run_pass(self, tr, warm: bool = False) -> float:
        """One pass; returns the share of Monte Carlo trials ended by a
        controller failure."""
        ck = self.ck
        ladder = self.ladder[:1] if warm else self.ladder
        with tr.span("bench.pass.scale_crosscheck"):
            chain = {}
            for n, cfg in ladder:
                with tr.span(f"oracle.markov_mttdl.n{n}"):
                    chain[n] = ck.call(f"markov_mttdl {cfg}", hl.markov_mttdl, cfg, self.RATES)
            values = [chain[n] for n, _ in ladder]
            if None not in values:
                ck.expect(
                    all(a > b for a, b in zip(values, values[1:])) and values[-1] > 0,
                    f"chain MTTDL must fall with N: {values}",
                )
            for cfg, want in self.ell0:
                with tr.span("oracle.markov_mttdl.l0"):
                    got = ck.call(f"markov_mttdl {cfg}", hl.markov_mttdl, cfg, self.RATES)
                if got is not None:
                    ck.expect(
                        abs(got - want) <= ELL0_REL_TOL * want,
                        f"{cfg}: chain {got!r} != sum formula {want!r}",
                    )

            trials = self.sizes.warm_trials if warm else self.sizes.mc_trials
            with tr.span(f"simulator.run_trials.n{self.MC_N}"):
                res = ck.call(
                    f"run_trials {self.mc_config}", hl.run_trials, self.mc_config, self.RATES,
                    trials, self.seed, threads=self.THREADS,
                )
            ctrl_share = math.nan
            if res is not None:
                with tr.span("simulator.MttdlEstimate.from_times"):
                    est = hl.MttdlEstimate.from_times(res.times_hours, self.seed)
                ctrl_share = float(np.mean(res.causes == 1))
                exact = chain.get(self.MC_N)
                if exact is not None:
                    z = z_score(est, exact)
                    ck.expect(abs(z) < Z_BOUND, f"{self.mc_config}: z = {z:.2f} against the chain")

            configs = self.configs[:20] if warm else self.configs
            for cfg in configs:
                self._enum_check(tr, cfg)
        return ctrl_share

    def _enum_check(self, tr, cfg: hl.HraidConfig) -> None:
        ck = self.ck
        with tr.span("oracle.exact_reliability_enum"):
            poly = ck.call(f"exact_reliability_enum {cfg}", hl.exact_reliability_enum, cfg)
        if poly is None:
            return
        for eps in self.EPS:
            with tr.span("oracle.UnreliabilityPolynomial.unreliability"):
                got = ck.call(f"unreliability {cfg} eps={eps}", poly.unreliability, eps)
            with tr.span("analytic.hraid_unreliability"):
                want = ck.call(
                    f"hraid_unreliability {cfg} eps={eps}", hl.hraid_unreliability, cfg, eps
                )
            if got is not None and want is not None:
                ck.expect(
                    abs(got - want) <= ENUM_REL_TOL * abs(want),
                    f"{cfg} eps={eps}: enumeration {got!r} != closed form {want!r}",
                )
        with tr.span("analytic.leading_term"):
            lead = ck.call(f"leading_term {cfg}", hl.leading_term, cfg)
        with tr.span("analytic.d_min"):
            dmin = hl.d_min(cfg)
        if lead is not None:
            first = next(d for d, c in enumerate(poly.fatal_counts) if c)
            ck.expect(
                lead.power == dmin == first and lead.coefficient == poly.fatal_counts[dmin],
                f"{cfg}: leading term {lead} against fatal_counts[{dmin}]",
            )

    def warm_up(self) -> None:
        self.run_pass(NULL_TRACER, warm=True)

    def after_passes(self, tr) -> None:
        """Edge probes: sizes the oracles should handle and do not yet.

        Each failure counts as one failed operation; their time is outside
        every end-to-end metric, so a fix lowers only ``failed``.
        """
        ck = self.ck
        cfg = hl.HraidConfig(128, self.M, 3, 3)
        with tr.span("oracle.markov_mttdl.n128"):
            got = ck.call(f"markov_mttdl {cfg}", hl.markov_mttdl, cfg, self.RATES)
        if got is not None:
            ck.expect(math.isfinite(got) and got > 0, f"{cfg}: chain gave {got!r}")
        cfg = hl.HraidConfig(2000, self.M, 3, 3)
        with tr.span("analytic.hraid_unreliability.n2000"):
            got = ck.call(f"hraid_unreliability {cfg} eps=0.5", hl.hraid_unreliability, cfg, 0.5)
        if got is not None:
            # P(at most 3 of 2000 nodes fail) is below 1e-2000 here
            ck.expect(abs(got - 1.0) <= ENUM_REL_TOL, f"{cfg} eps=0.5: got {got!r}")


def strip_tag(size: int) -> str:
    return f"s{size // 1024}k" if size >= 1024 else f"s{size}"


class CodecRebuild:
    """HRAID1/1 on 12 x 12 at two strip sizes: encode, verify, rebuild a
    disk and a node, and refuse a two-node loss; after the timed passes,
    round-trip the strip tree."""

    CONFIG = hl.HraidConfig(12, 12, 1, 1)
    STRIP_SIZES = (512, 65536)

    def __init__(self, seed: int, sizes: Sizes, tr, ck: Checks, tmp_root: Path) -> None:
        self.ck, self.tmp_root = ck, tmp_root
        self.content: dict[int, hl.StripeContent] = {}
        cfg = self.CONFIG
        with tr.span("layout.generate_layout"):
            self.grid = hl.generate_layout(cfg)
        with tr.span("layout.verify_layout"):
            violations = ck.call("verify_layout", hl.verify_layout, self.grid, cfg)
        ck.expect(violations == [], f"layout violations: {violations}")

        rng = np.random.default_rng(seed)
        node, disk = int(rng.integers(1, cfg.n + 1)), int(rng.integers(1, cfg.m + 1))
        pair = [int(x) for x in rng.choice(np.arange(1, cfg.n + 1), size=2, replace=False)]
        with tr.span("codec.erasure_sets"):
            self.disk_erasure = hl.disk_cells(cfg, node, disk)
            self.node_erasure = hl.node_cells(cfg, node)
            self.pair_erasure = hl.node_cells(cfg, pair[0]) | hl.node_cells(cfg, pair[1])
        self.payloads = {}
        for size in self.STRIP_SIZES:
            with tr.span(f"codec.random_payloads.{strip_tag(size)}"):
                self.payloads[size] = hl.random_payloads(self.grid, seed, size)

        # XOR strip operations of one encode, from the layout's counts
        codes = self.grid.codes
        data_per_column = (codes == 0).sum(axis=1)  # per (row, position), over nodes
        inter = codes > cfg.ell
        intra = (codes >= 1) & (codes <= cfg.ell)
        self.encode_xor_strips = int((data_per_column[:, None, :] * inter).sum()) + int(
            intra.sum()
        ) * (cfg.m - 1)

    def array_bytes(self, size: int) -> int:
        return self.CONFIG.m * self.CONFIG.n * self.CONFIG.m * size

    def run_pass(self, tr, strip_sizes: tuple[int, ...] | None = None) -> None:
        with tr.span("bench.pass.codec_rebuild"):
            for size in strip_sizes or self.STRIP_SIZES:
                self._one_size(tr, size)

    def _one_size(self, tr, size: int) -> None:
        ck, cfg, tag = self.ck, self.CONFIG, strip_tag(size)
        payloads = self.payloads[size]
        with tr.span(f"codec.encode_stripes.{tag}"):
            content = ck.call("encode_stripes", hl.encode_stripes, payloads, cfg, self.grid)
        if content is None:
            return
        self.content[size] = content
        ck.expect(
            all(
                np.array_equal(content.strips[i - 1, n - 1, j - 1], np.frombuffer(p, np.uint8))
                for (i, n, j), p in payloads.items()
            ),
            f"{tag}: encoded data strips differ from the payloads",
        )
        with tr.span(f"codec.verify_parity.{tag}"):
            violations = ck.call("verify_parity", hl.verify_parity, content)
        ck.expect(violations == [], f"{tag}: parity violations {violations}")

        for what, erased in (("disk", self.disk_erasure), ("node", self.node_erasure)):
            with tr.span(f"codec.recover_{what}.{tag}"):
                rec = ck.call(f"recover {what}", hl.recover, content, erased)
            ck.expect(
                rec is not None
                and not rec.data_loss
                and np.array_equal(rec.content.strips, content.strips),
                f"{tag}: {what} rebuild is not bit-exact",
            )
            del rec
        with tr.span(f"codec.recover_two_nodes.{tag}"):
            rec = ck.call("recover two nodes", hl.recover, content, self.pair_erasure)
        ck.expect(
            rec is not None and rec.data_loss, f"{tag}: two-node erasure not reported as loss"
        )

    def warm_up(self) -> None:
        self.run_pass(NULL_TRACER, self.STRIP_SIZES[:1])

    def after_passes(self, tr) -> None:
        """Strip-tree round trip of the last pass's stripes, once per run.

        Its time is the filesystem's more than the codec's (file creation
        and rewrite each cost ~0.1-0.5 ms and vary several-fold from pass
        to pass on a shared VM), so it stays out of ``wall_s``.  Both sizes
        share one tree, so a write that leaves stale files fails the check.
        """
        ck = self.ck
        with tempfile.TemporaryDirectory(prefix="strip-tree-", dir=self.tmp_root) as root:
            for size, content in self.content.items():
                tag = strip_tag(size)
                with tr.span(f"codec.write_strip_tree.{tag}"):
                    ck.call("write_strip_tree", hl.write_strip_tree, content, root)
                with tr.span(f"codec.read_strip_tree.{tag}"):
                    back = ck.call("read_strip_tree", hl.read_strip_tree, root, self.CONFIG)
                ck.expect(
                    back is not None
                    and back[1] == set()
                    and np.array_equal(back[0].strips, content.strips),
                    f"{tag}: strip tree round trip changed the strips",
                )


WORKLOADS = ("paper_grid", "scale_crosscheck", "codec_rebuild")


def make_workload(name: str, seed: int, sizes: Sizes, tr, ck: Checks, tmp_root: Path):
    if name == "paper_grid":
        return PaperGrid(seed, sizes, tr, ck)
    if name == "scale_crosscheck":
        return ScaleCrosscheck(seed, sizes, tr, ck)
    if name == "codec_rebuild":
        return CodecRebuild(seed, sizes, tr, ck, tmp_root)
    raise ValueError(f"unknown workload {name!r}")


def _timed(fn, *args) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def trace_suite(seed: int, sizes: Sizes, ck: Checks, tmp_root: Path) -> tuple[dict, Tracer]:
    """Per-layer metrics from one traced pass of every workload.

    Each layer does its work in a different workload, so the traced run
    covers all three whatever workload it is started for.  Each workload
    runs its warm-up, one untraced pass and one traced pass (the difference
    of their wall times is the tracing overhead), then its after-pass work,
    traced.  Returns ``{name: (value, unit)}`` and the tracer holding every
    span.
    """
    tr = Tracer()
    out: dict[str, tuple[float, str]] = {}
    pass_ranges = []
    results = {}
    built = {}
    setup_ranges, after_ranges = [], []
    for name in WORKLOADS:
        tr.pass_id = f"setup.{name}"
        mark = tr.mark()
        built[name] = make_workload(name, seed, sizes, tr, ck, tmp_root)
        setup_ranges.append((mark, tr.mark()))
        built[name].warm_up()
        untraced, _ = _timed(built[name].run_pass, NULL_TRACER)
        tr.pass_id = f"pass.{name}"
        mark = tr.mark()
        traced, results[name] = _timed(built[name].run_pass, tr)
        pass_ranges.append((mark, tr.mark()))
        tr.pass_id = f"after.{name}"
        mark = tr.mark()
        built[name].after_passes(tr)
        after_ranges.append((mark, tr.mark()))
        out[f"trace.overhead_s.{name}"] = (traced - untraced, "s")

    grid_lo, grid_hi = pass_ranges[0]
    sweep_result, events = results["paper_grid"]
    run_s = sum(tr.durations("simulator.run_trials", grid_lo, grid_hi))
    out["simulator.trials_per_s"] = (sizes.grid_trials * len(sweep_result.cells) / run_s, "1/s")
    for k, ell, *_ in built["paper_grid"].cells:
        cell_s = tr.durations(f"simulator.cell.k{k}l{ell}", grid_lo, grid_hi)[0]
        out[f"simulator.cell_s.k{k}l{ell}"] = (cell_s, "s")
    out["simulator.events_per_trial"] = (events, "count")
    out["oracle.markov_s.grid"] = (tr.durations("oracle.markov_mttdl.grid")[0], "s")

    scale = built["scale_crosscheck"]
    sc_lo, sc_hi = pass_ranges[1]
    out["simulator.ctrl_loss_share"] = (results["scale_crosscheck"], "ratio")
    for n in scale.LADDER:
        chain_s = tr.durations(f"oracle.markov_mttdl.n{n}", sc_lo, sc_hi)[0]
        out[f"oracle.markov_s.n{n}"] = (chain_s, "s")
    enum_s = tr.durations("oracle.exact_reliability_enum", sc_lo, sc_hi)
    out["oracle.enum_s"] = (sum(enum_s), "s")
    out["oracle.enum_configs"] = (len(enum_s), "count")
    out["analytic.closed_form_s"] = (tr.prefixed_total("analytic.", sc_lo, sc_hi), "s")

    codec = built["codec_rebuild"]
    cd_lo, cd_hi = pass_ranges[2]
    out["layout.generate_s"] = (tr.durations("layout.generate_layout")[0], "s")
    out["layout.verify_s"] = (tr.durations("layout.verify_layout")[0], "s")
    for size in codec.STRIP_SIZES:
        tag = strip_tag(size)
        mb = codec.array_bytes(size) / 1e6

        def one(what: str) -> float:
            return tr.durations(f"codec.{what}.{tag}", cd_lo, cd_hi)[0]

        out[f"codec.encode_mb_per_s.{tag}"] = (mb / one("encode_stripes"), "MB/s")
        out[f"codec.recover_disk_mb_per_s.{tag}"] = (mb / one("recover_disk"), "MB/s")
        out[f"codec.recover_node_mb_per_s.{tag}"] = (mb / one("recover_node"), "MB/s")
        out[f"codec.verify_parity_s.{tag}"] = (one("verify_parity"), "s")
        tree_lo, tree_hi = after_ranges[2]
        for what in ("write", "read"):
            tree_s = tr.durations(f"codec.{what}_strip_tree.{tag}", tree_lo, tree_hi)[0]
            out[f"codec.tree_{what}_s.{tag}"] = (tree_s, "s")
        out[f"codec.xor_bytes.{tag}"] = (codec.encode_xor_strips * size, "bytes")

    for layer, seconds in tr.self_times(setup_ranges + pass_ranges + after_ranges).items():
        out[f"{layer}.self_s"] = (seconds, "s")

    tr.pass_id = "probes"
    keys = trial_keys(seed, 0, CHUNK_TRIALS)
    reps = sizes.stream_reps
    with tr.span("stream.trial_keys"):
        t0 = time.perf_counter()
        for r in range(reps):
            trial_keys(seed, r * CHUNK_TRIALS, CHUNK_TRIALS)
        out["stream.keys_per_s"] = (reps * CHUNK_TRIALS / (time.perf_counter() - t0), "1/s")
    with tr.span("stream.uniforms_at"):
        t0 = time.perf_counter()
        for r in range(reps):
            uniforms_at(keys, r + 1)
        out["stream.uniforms_per_s"] = (reps * CHUNK_TRIALS / (time.perf_counter() - t0), "1/s")

    cfg, trials = scale.mc_config, sizes.mc_trials
    two = tr.durations(f"simulator.run_trials.n{scale.MC_N}", sc_lo, sc_hi)[0]
    with tr.span("simulator.run_trials.one_thread"):
        one, _ = _timed(hl.run_trials, cfg, scale.RATES, trials, seed, 1)
    out["simulator.thread_speedup"] = (one / two, "ratio")
    with tr.span("simulator.run_trials.tracemalloc"):
        tracemalloc.start()
        try:
            hl.run_trials(cfg, scale.RATES, trials, seed, scale.THREADS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    out["simulator.alloc_peak_mb"] = (peak / 2**20, "MB")
    return out, tr
