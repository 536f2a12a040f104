"""In-memory span tracing around the public functions of wallsunsun.

The tracer lives entirely in the benchmark: it replaces every public
function of the six library modules with a wrapper that records a span
(name, start, end, parent) and puts the originals back on uninstall. A
function is reachable under several names once a module does
``from .lucas import pisano_period``, so every binding of the same function
object in every wallsunsun module is replaced, not just the defining one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# The public functions of the six modules. cli.main is the only cli entry:
# its self time is meant to cover argparse and JSON rendering, so the cmd_*
# handlers it dispatches to stay unwrapped and their work counts as main's.
TRACED = {
    "intmath": ("mod_pow", "jacobi", "is_prime", "factorize", "is_squarefree"),
    "lucas": ("lucas_u", "pisano_period", "period_p_squared", "companion_order"),
    "quadring": ("qr_mul", "qr_pow", "conjugate", "ord_alpha", "eval_fp_alpha"),
    "trinomial": (
        "wss_trinomial",
        "discriminant_resultant",
        "fp_discriminant",
        "index_d_value",
        "index_check_prime",
        "gh_coprimality",
        "is_monogenic_fp",
    ),
    "wss": (
        "validate_k",
        "delta_p",
        "is_wss_by_period",
        "is_wss_by_entry",
        "is_wss_by_alpha",
        "is_wss_by_monogenicity",
        "classify",
        "search",
    ),
    "cli": ("main",),
}
MODULES = tuple(TRACED)
TRACED_NAMES = tuple(f"{m}.{f}" for m, names in TRACED.items() for f in names)

INDEX_CHECK = "trinomial.index_check_prime"


class Tracer:
    """Records nested spans while installed; spans stay in memory until dump()."""

    def __init__(self, package):
        self._package = package
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.error_spans = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self._names)
            self._names.append(name)
        return idx

    def _wrap(self, qualname: str, fn):
        idx = self._intern(qualname)
        bucket_by_case = qualname == INDEX_CHECK
        if bucket_by_case:
            case_idx = {c: self._intern(f"{INDEX_CHECK}.case{c}") for c in range(1, 6)}
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[sid] = clock()
                self.error_spans.append(sid)
                raise
            else:
                ends[sid] = clock()
                if bucket_by_case:
                    names[sid] = case_idx[result.item_used]
                return result
            finally:
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m: sys.modules[f"{self._package.__name__}.{m}"] for m in MODULES}
        wrappers = {}
        for qualname in TRACED_NAMES:
            mod_name, attr = qualname.split(".")
            fn = getattr(modules[mod_name], attr, None)
            if fn is not None:  # a function the library no longer has is skipped
                wrappers[id(fn)] = self._wrap(qualname, fn)
        for module in [self._package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, errors and self_s.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because tracing runs single-process.
        """
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = Counter()
        own = defaultdict(int)
        for sid in range(n):
            key = self._names[self.name[sid]]
            calls[key] += 1
            own[key] += self.end[sid] - self.start[sid] - child[sid]
        errors = Counter(self._names[self.name[sid]] for sid in self.error_spans)
        return {
            key: {"calls": calls[key], "errors": errors[key], "self_s": own[key] / 1e9}
            for key in calls
        }

    def root_seconds(self) -> float:
        """Summed duration of the top-level spans."""
        return sum(
            self.end[s] - self.start[s] for s in range(len(self.start)) if self.parent[s] < 0
        ) / 1e9

    def dump(self, path) -> None:
        """Write every span as [name, start_ns, end_ns, parent] plus the error span ids."""
        t0 = self.start[0] if len(self.start) else 0
        record = {
            "names": self._names,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [
                [self.name[s], self.start[s] - t0, self.end[s] - t0, self.parent[s]]
                for s in range(len(self.start))
            ],
            "error_spans": list(self.error_spans),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
