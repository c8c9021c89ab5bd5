"""Spans around the calls into each lcprof layer, recorded from outside.

`Tracer.installed()` replaces, for the length of a `with` block, the
names through which one layer calls another: the engine and analysis
names that lcprof.cli, lcprof.analysis, lcprof.verify and lcprof.rueppel
imported, the verify suites that the CLI looks up on lcprof.verify, and
`ProfileReport.to_json_dict`.  Nothing inside the package is edited, so
spans start and end at layer boundaries only.

Each span records its name, start, end, parent and request id; spans
stay in memory until `write_spans`.  Self time is a span's duration
minus the time its children cover.  Engine counts (runs, steps,
coefficient operations, jumps, zero-discrepancy steps) are taken from
the reports the engine returns, and for the engine cores that analysis
and verify drive directly, from a counting subclass.
"""

from __future__ import annotations

import contextlib
import json
import time

perf_counter = time.perf_counter

ANALYSIS_FNS = ("is_plcp", "plcp_witnesses", "height", "char_equivalence",
                "lc_sum", "is_stable", "t_transform", "cf_partial_quotients",
                "enumerate_plcp")
RUEPPEL_FNS = {"rueppel_matrix_check": "matrix_check",
               "gamma_identities": "gamma_identities",
               "power_column_identity": "power_column",
               "rueppel_mp": "mp"}
SUITES = {"verify_oracle": "oracle", "verify_bezout": "bezout",
          "verify_wang_massey": "wang-massey", "verify_plcp_count": "plcp-count",
          "verify_plcp_equivalence": "plcp-equiv", "verify_rueppel": "rueppel",
          "verify_height": "height", "verify_lcsum": "lcsum"}
ENGINE_COUNTS = ("calls", "steps", "coeff_ops", "jumps", "zero_delta_steps")


class _JsonShim:
    """Stands in for the `json` module inside lcprof.cli, timing `dumps`."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent id, request)
        self._stack: list[list] = []   # open spans: [id, name, start, child time]
        self.request = -1
        self.totals: dict[str, list] = {}   # name -> [calls, duration, self time]
        self.engine = dict.fromkeys(ENGINE_COUNTS, 0)
        self.report_ops = 0          # coefficient ops of runs that return a report
        self.final_lc = [0, 0]       # sum of final LC, runs that return a report
        self.checks: dict[str, int] = {}
        self._snapshot_inputs: list = []
        self.post_engine_s = {"packed": 0.0, "generic": 0.0}

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> None:
        self._stack.append([len(self.spans) + len(self._stack), name,
                            perf_counter(), 0.0])

    def close(self) -> float:
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            parent = top[0]
        self.spans.append((sid, name, start, end, parent, self.request))
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        return dur

    def _hide(self, seconds: float) -> None:
        # bookkeeping done after a span closed is not its parent's own work
        if self._stack:
            self._stack[-1][3] += seconds

    def span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return wrapped

    def request_span(self, fn, *args):
        """Run fn(*args) as one request in a root span named `request`.

        Returns fn's result and the span's duration.
        """
        self.request += 1
        self.open("request")
        try:
            out = fn(*args)
        finally:
            dur = self.close()
            self._time_snapshot_engines()
        return out, dur

    # ----------------------------------------------------- engine counts

    def _count_run(self, lc: list[int], deltas: list[int]) -> None:
        t0 = perf_counter()
        e = self.engine
        prev = ops = jumps = 0
        for cur, d in zip(lc, deltas):
            ops += prev + 1
            if d:
                ops += cur + 1
                jumps += cur > prev
            prev = cur
        e["calls"] += 1
        e["steps"] += len(lc)
        e["coeff_ops"] += ops
        e["jumps"] += jumps
        e["zero_delta_steps"] += deltas.count(0)
        self.report_ops += ops
        self.final_lc[0] += lc[-1] if lc else 0
        self.final_lc[1] += 1
        self._hide(perf_counter() - t0)

    def _core_step(self, before: int, delta: int, after: int) -> None:
        e = self.engine
        e["steps"] += 1
        e["coeff_ops"] += before + 1 + (after + 1 if delta else 0)
        e["jumps"] += after > before
        e["zero_delta_steps"] += not delta

    def _counted_core(self, base):
        tracer = self
        base_init, base_step, cur_lc = base.__init__, base.step, base.cur_lc

        def __init__(core, *args, **kwargs):
            base_init(core, *args, **kwargs)
            tracer.engine["calls"] += 1

        def step(core, sj):
            before = cur_lc(core)
            delta = base_step(core, sj)
            tracer._core_step(before, delta, cur_lc(core))
            return delta

        # empty __slots__ keeps the layout, so a core's class can be swapped
        return type(base.__name__, (base,),
                    {"__slots__": (), "__init__": __init__, "step": step})

    def _time_snapshot_engines(self) -> None:
        """Time the plain engine on each profile_steps input, outside requests.

        engine.snapshot_s is profile_steps minus this engine time on the
        same input; the engine part counts as packed or generic time.
        """
        for run, s, args, kwargs in self._snapshot_inputs:
            t0 = perf_counter()
            run(s, *args, **kwargs)
            self.post_engine_s[_path(s)] += perf_counter() - t0
        self._snapshot_inputs.clear()

    # ---------------------------------------------------------- wrappers

    def _mp_run(self, real):
        def mp_run(s, *args, **kwargs):
            self.open(f"engine.mp_run.{_path(s)}")
            try:
                out = real(s, *args, **kwargs)
            finally:
                self.close()
            rep = out[1]
            self._count_run(rep.lc, rep.deltas)
            return out
        return mp_run

    def _profile_steps(self, real, plain_run):
        def profile_steps(s, *args, **kwargs):
            self.open("engine.profile_steps")
            try:
                rows = real(s, *args, **kwargs)
            finally:
                self.close()
            self._snapshot_inputs.append((plain_run, s, args, kwargs))
            self._count_run([r.lc for r in rows[1:]], [r.delta for r in rows[1:]])
            return rows
        return profile_steps

    def _make_core(self, real, counted):
        def make_core(*args, **kwargs):
            core = real(*args, **kwargs)
            core.__class__ = counted[type(core)]
            self.engine["calls"] += 1
            return core
        return make_core

    def _suite(self, name, real):
        suite = self.span(f"verify.{name}", real)

        def run(*args, **kwargs):
            result = suite(*args, **kwargs)
            self.checks[name] = self.checks.get(name, 0) + result.checked
            return result
        return run

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        import lcprof.analysis as analysis
        import lcprof.cli as cli
        import lcprof.engine as engine
        import lcprof.rueppel as rueppel
        import lcprof.verify as verify

        counted = {base: self._counted_core(base)
                   for base in (engine._PackedCore, engine._GenericCore)}
        plain_run = engine.mp_run
        patches = []

        def patch(obj, name, make):
            if name in vars(obj):
                real = getattr(obj, name)
                patches.append((obj, name, real))
                setattr(obj, name, make(real))

        for mod in (cli, analysis, verify, rueppel):
            patch(mod, "mp_run", self._mp_run)
            patch(mod, "profile_steps",
                  lambda real: self._profile_steps(real, plain_run))
        patch(analysis, "_make_core", lambda real: self._make_core(real, counted))
        for name in ("_PackedCore", "_GenericCore"):
            patch(verify, name, lambda real: counted[real])
        for mod in (cli, verify):
            for fn in ANALYSIS_FNS:
                patch(mod, fn, lambda real, fn=fn: self.span(f"analysis.{fn}", real))
        for fn, short in RUEPPEL_FNS.items():
            patch(verify, fn, lambda real, short=short: self.span(f"rueppel.{short}", real))
        for fn, suite in SUITES.items():
            patch(verify, fn, lambda real, suite=suite: self._suite(suite, real))
        patch(cli, "parse_sequence", lambda real: self.span("cli.parse_sequence", real))
        patch(cli, "render_profile_table",
              lambda real: self.span("cli.render_profile_table", real))
        patch(cli, "json", lambda real: _JsonShim(self.span("cli.json_dumps", real.dumps)))
        patch(engine.ProfileReport, "to_json_dict",
              lambda real: self.span("poly.to_json_dict", real))
        try:
            yield self
        finally:
            for obj, name, real in reversed(patches):
                setattr(obj, name, real)

    # ----------------------------------------------------------- results

    def layer_metrics(self) -> dict[str, float]:
        """Per-request layer figures (the requests traced so far)."""
        req = max(1, self.request + 1)

        def dur(name):
            return self.totals.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return self.totals.get(name, (0, 0.0, 0.0))[2]

        def calls(name):
            return self.totals.get(name, (0, 0.0, 0.0))[0]

        snapshot_engine = sum(self.post_engine_s.values())
        packed = own("engine.mp_run.packed") + self.post_engine_s["packed"]
        generic = own("engine.mp_run.generic") + self.post_engine_s["generic"]
        m = {
            "cli.parse_s": dur("cli.parse_sequence") / req,
            "cli.render_s": (own("cli.json_dumps")
                             + own("cli.render_profile_table")) / req,
            "cli.glue_s": own("request") / req,
            "engine.packed_s": packed / req,
            "engine.generic_s": generic / req,
            "engine.snapshot_s": (dur("engine.profile_steps") - snapshot_engine) / req,
            "poly.report_s": dur("poly.to_json_dict") / req,
        }
        for key in ENGINE_COUNTS:
            m[f"engine.{key}"] = self.engine[key] / req
        m["engine.final_lc"] = self.final_lc[0] / max(1, self.final_lc[1])
        m["engine.ns_per_coeff_op"] = (
            1e9 * (packed + generic) / self.report_ops if self.report_ops else 0.0)
        for fn in ANALYSIS_FNS:
            m[f"analysis.{fn}_s"] = own(f"analysis.{fn}") / req
            m[f"analysis.{fn}.calls"] = calls(f"analysis.{fn}") / req
        for suite in SUITES.values():
            m[f"verify.{suite}_s"] = dur(f"verify.{suite}") / req
            m[f"verify.{suite}_self_s"] = own(f"verify.{suite}") / req
            m[f"verify.{suite}_checks"] = self.checks.get(suite, 0) / req
        for short in RUEPPEL_FNS.values():
            m[f"rueppel.{short}_s"] = own(f"rueppel.{short}") / req
        request = dur("request")
        m["trace.span_coverage"] = (
            (request - own("request")) / request if request else 0.0)
        return m

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, name, start, end, parent id, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _path(s) -> str:
    return "packed" if s.domain.p == 2 else "generic"
