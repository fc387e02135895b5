"""Run one capforge command with span recorders around each layer.

Usage: python3 traced_cli.py SPANS.json CAPFORGE-ARGS...

The recorders sit outside the package: each public function named in
TARGETS is replaced by a wrapper at every capforge module that binds it
(``open_pool`` is bound in ``pool``, ``cli`` and ``report``), then
``capforge.cli.cli_main`` runs with the given arguments.  A span holds its
name, parent span, thread, start and end (``perf_counter``), thread CPU
time, and a count of rows or bytes.  Spans stay in memory and are written
to SPANS.json when the command ends.

Parents are tracked per thread.  A span opened on a worker thread whose own
stack is empty takes the innermost open span of the main thread as parent:
capforge only submits thread-pool jobs (``score_pool`` and ``gen`` shards)
from the main thread, so that span is the one that submitted them.

A name in TARGETS that the package no longer defines stops the command with
exit status 3, so a rename cannot turn into a layer that reports zeros.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

MISSING_TARGET_EXIT = 3
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[dict] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _parent_id(self, stack: list[dict]) -> int | None:
        if stack:
            return stack[-1]["id"]
        try:
            return self._main_stack[-1]["id"]
        except IndexError:
            return None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": self._parent_id(stack),
            "thread": threading.get_ident(),
            "count": 0,
            "bytes": 0,
        }
        stack.append(span)
        cpu0 = time.thread_time()
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            span["cpu"] = time.thread_time() - cpu0
            stack.pop()
            self.spans.append(span)


def _nbytes(buf) -> int:
    return getattr(buf, "nbytes", None) or len(buf)


# (module, attribute, span name, what to count: fn(span, args, result))
TARGETS = [
    ("fileio", "crc32c", "fileio.crc32c",
     lambda s, a, r: s.update(bytes=_nbytes(a[0]))),
    ("fileio", "read_embeddings", "fileio.read",
     lambda s, a, r: s.update(bytes=os.path.getsize(a[0]), count=r.shape[0])),
    ("fileio", "read_scores", "fileio.read",
     lambda s, a, r: s.update(bytes=os.path.getsize(a[0]), count=r.size)),
    ("pool", "open_pool", "pool.open_pool", None),
    ("pool", "validate_pool", "pool.validate_pool", None),
    ("pool", "write_shard", "pool.write_shard",
     lambda s, a, r: s.update(bytes=sum(os.path.getsize(Path(a[0]) / n) for n in r))),
    ("poolgen", "generate_pool", "poolgen.generate_pool",
     lambda s, a, r: s.update(count=r.num_records)),
    ("scoring", "score_pool", "scoring.score_pool",
     lambda s, a, r: s.update(count=r.scores.size)),
    ("curation", "apply_strategy", "curation.apply_strategy",
     lambda s, a, r: s.update(count=len(r))),
    ("curation", "top_fraction", "curation.top_fraction", None),
    ("curation", "in1k_cluster_mask", "curation.in1k_cluster_mask", None),
    ("curation", "write_curated", "curation.write_curated", None),
    ("curation", "read_curated", "curation.read_curated",
     lambda s, a, r: s.update(count=len(r))),
    ("textmetrics", "sample_subset", "textmetrics.sample_subset",
     lambda s, a, r: s.update(count=len(r))),
    ("report", "build_quality_report", "report.build_quality_report",
     lambda s, a, r: s.update(count=r.sample_size)),
    ("report", "write_report_files", "report.write_report_files", None),
]

# (module, class, method, span name, key, count).  With a key, only the
# first call per key gets a span: those methods cache their result, so later
# calls (``handle.record(i)`` calls ``records()`` once per record) do no
# work.  Keys hold the handle itself, so it cannot be freed and its id reused.
METHODS = [
    ("pool", "PoolHandle", "records", "pool.records",
     lambda a: a[0], lambda s, a, r: s.update(count=len(r))),
    ("pool", "PoolHandle", "embeddings", "pool.embeddings",
     lambda a: (a[0], a[1]), lambda s, a, r: s.update(count=r.shape[0])),
    ("curation", "CuratedSet", "__post_init__", "curation.CuratedSet",
     None, lambda s, a, r: s.update(count=len(a[0].entries))),
]


class MissingTarget(Exception):
    pass


def _lookup(obj, attr: str, where: str):
    try:
        return getattr(obj, attr)
    except AttributeError:
        raise MissingTarget(f"{where}.{attr} is missing") from None


def _capforge_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "capforge" or name.startswith("capforge."))]


def _rebind(original, wrapper) -> None:
    for module in _capforge_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _span_call(rec: Recorder, name: str, original, measure):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with rec.span(name) as span:
            result = original(*args, **kwargs)
            if measure is not None:
                measure(span, args, result)
        return result
    return wrapper


def _first_call(rec: Recorder, name: str, original, key, measure):
    seen: set = set()

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        k = key(args)
        if k in seen:
            return original(*args, **kwargs)
        seen.add(k)
        with rec.span(name) as span:
            rss0 = _rss_bytes()
            result = original(*args, **kwargs)
            span["rss"] = _rss_bytes() - rss0
            measure(span, args, result)
        return result
    return wrapper


def _traced_steps(rec: Recorder, original):
    """One ``curation.kmeans`` span per yielded k-means step.

    The span of the call that ends the iteration has count 0, so the
    iteration count is the sum of counts.
    """
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        steps = original(*args, **kwargs)
        while True:
            with rec.span("curation.kmeans") as span:
                try:
                    step = next(steps)
                except StopIteration:
                    return
                span["count"] = 1
            yield step
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target; raises MissingTarget if one is gone."""
    importlib.import_module("capforge")
    importlib.import_module("capforge.cli")
    mods = {m.__name__.split(".")[-1]: m for m in _capforge_modules()}

    def module(name: str):
        if name not in mods:
            raise MissingTarget(f"capforge.{name} is missing")
        return mods[name]

    for mod_name, attr, name, measure in TARGETS:
        original = _lookup(module(mod_name), attr, f"capforge.{mod_name}")
        _rebind(original, _span_call(rec, name, original, measure))
    original = _lookup(module("curation"), "kmeans_trace", "capforge.curation")
    _rebind(original, _traced_steps(rec, original))
    for mod_name, cls_name, attr, name, key, measure in METHODS:
        cls = _lookup(module(mod_name), cls_name, f"capforge.{mod_name}")
        original = _lookup(cls, attr, f"capforge.{mod_name}.{cls_name}")
        wrapper = (_span_call(rec, name, original, measure) if key is None
                   else _first_call(rec, name, original, key, measure))
        setattr(cls, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py SPANS.json CAPFORGE-ARGS...", file=sys.stderr)
        return 1
    out, cli_args = argv[0], argv[1:]
    rec = Recorder()
    try:
        install(rec)
    except MissingTarget as exc:
        print(f"traced_cli: {exc}", file=sys.stderr)
        return MISSING_TARGET_EXIT
    from capforge.cli import cli_main

    try:
        with rec.span(f"cli.{cli_args[0]}"):
            status = cli_main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
