"""Per-layer tracing of skic from outside its source tree.

`Tracer.install` replaces public module-level functions of skic (and a
few private ones the pipeline calls through module attributes) with
wrappers.  A wrapper either records a span -- name, start, end, parent
span and program -- or only counts calls.  Spans stay in memory and are
written out when the run ends.

Layer times are self times: a span's duration minus the time its child
spans cover, summed into the bucket the span belongs to.  Hot, leaf-like
functions (substitution, reduction steps, energy) are counted but do not
open spans; their time stays in the enclosing span's bucket.

A hook whose target no longer exists, or whose arguments no longer fit,
is reported as missing and the metrics it feeds are left out.  Nothing
here changes what the wrapped functions compute.
"""

from __future__ import annotations

import gzip
import re
import time
from array import array
from collections import defaultdict
from pathlib import Path

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open frames: [id, name, bucket, start, child_time, parent]
        self.active: dict[str, int] = defaultdict(int)
        self.buckets: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)  # outermost spans only
        self.counts: dict[str, int] = defaultdict(int)
        self.rows: dict[str, dict] = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        self.missing: list[str] = []
        self.installed: list["Hook"] = []
        self.unfed: set[str] = set()
        self.program = -1
        self.seen_probes: dict = {}
        self.next_id = 0
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_cols = {
            "id": array("q"), "parent": array("q"), "name": array("H"),
            "program": array("i"), "start": array("d"), "end": array("d"),
        }

    # --- spans -----------------------------------------------------------------

    def open(self, name: str, bucket: str) -> list:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [sid, name, bucket, _perf(), 0.0, parent]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def close(self, frame: list) -> float:
        end = _perf()
        self.stack.pop()
        dur = end - frame[3]
        self.buckets[frame[2]] += dur - frame[4]
        if self.stack:
            self.stack[-1][4] += dur
        name = frame[1]
        self.active[name] -= 1
        if not self.active[name]:
            self.inclusive[name] += dur
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        cols = self.span_cols
        cols["id"].append(frame[0])
        cols["parent"].append(frame[5])
        cols["name"].append(nid)
        cols["program"].append(self.program)
        cols["start"].append(frame[3])
        cols["end"].append(end)
        return dur

    def begin_program(self, index: int) -> None:
        self.program = index
        self.seen_probes = {}

    def write_spans(self, path: Path, program_ids: list[str]) -> int:
        cols = self.span_cols
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tprogram\tstart_s\tend_s\n")
            for i in range(len(cols["id"])):
                prog = cols["program"][i]
                out.write(
                    f"{cols['id'][i]}\t{cols['parent'][i]}\t{self.names[cols['name'][i]]}\t"
                    f"{program_ids[prog] if prog >= 0 else '-'}\t"
                    f"{cols['start'][i]:.9f}\t{cols['end'][i]:.9f}\n"
                )
        return len(cols["id"])

    # --- installation ------------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every hook target found in `modules` (short name -> module)."""
        for hook in HOOKS:
            owner = modules.get(hook.module)
            for part in hook.owner_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, hook.attr, None) if owner is not None else None
            if orig is None or not callable(orig):
                self._mark_missing(hook)
                continue
            wrapper = hook.wrap(self, orig)
            self.installed.append(hook)
            if hook.owner_path:  # a method: patch the class itself
                setattr(owner, hook.attr, wrapper)
                continue
            # the same function object may also sit in other modules'
            # namespaces through `from ... import`
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def unfired(self) -> list[str]:
        """Installed hooks never called: a caller that stopped going through
        the module attribute leaves a hook silent rather than missing."""
        return [hook.name for hook in self.installed if not hook.fired(self)]

    def _mark_missing(self, hook: "Hook") -> None:
        label = ".".join((hook.module,) + hook.owner_path + (hook.attr,))
        if label not in self.missing:
            self.missing.append(label)
        self.unfed.update(hook.feeds)


class Hook:
    """One wrapped function: a span (with a bucket) or a counter only."""

    def __init__(self, target: str, feeds=(), bucket=None, counter=None, before=None, after=None):
        parts = target.split(".")
        self.module, self.owner_path, self.attr = parts[0], tuple(parts[1:-1]), parts[-1]
        self.name = target
        self.bucket = bucket  # str, or callable(tracer) -> str; None: no span
        self.counter = counter
        self.before = before
        self.after = after
        self.feeds = tuple(feeds)

    def fired(self, tracer: Tracer) -> bool:
        if self.bucket is not None:
            return self.name in tracer.inclusive
        return tracer.counts.get(self.counter, 0) > 0

    def wrap(self, tracer: Tracer, orig):
        hook = self
        depth = [0]
        counts = tracer.counts
        counter = self.counter
        callbacks = {"before": self.before, "after": self.after}

        def broken():
            tracer._mark_missing(hook)
            callbacks["before"] = callbacks["after"] = None

        if self.bucket is None:
            def count_only(*args, **kwargs):
                if depth[0]:  # recursion inside the function itself
                    return orig(*args, **kwargs)
                counts[counter] += 1
                depth[0] = 1
                try:
                    return orig(*args, **kwargs)
                finally:
                    depth[0] = 0

            return count_only

        name = self.name
        bucket = self.bucket

        def span(*args, **kwargs):
            if depth[0]:
                return orig(*args, **kwargs)
            if counter:
                counts[counter] += 1
            ctx = None
            before = callbacks["before"]
            if before is not None:
                try:
                    ctx = before(tracer, args)
                except (TypeError, IndexError, AttributeError, ValueError):
                    broken()
            depth[0] = 1
            frame = tracer.open(name, bucket(tracer) if callable(bucket) else bucket)
            try:
                result = orig(*args, **kwargs)
            finally:
                depth[0] = 0
                dur = tracer.close(frame)
            after = callbacks["after"]
            if after is not None:
                try:
                    after(tracer, args, result, dur, ctx)
                except (TypeError, IndexError, AttributeError, ValueError):
                    broken()
            return result

        return span


# --- hook callbacks ------------------------------------------------------------------


def _probe_before(tracer: Tracer, args):
    side, tup = args[0], tuple(args[1])
    if tracer.active["ski_core.behavioral_equal"]:
        tracer.counts["ski_core.probe.calls.verify"] += 1
    elif tracer.active["mdl_opt.compress_program"]:
        tracer.counts["ski_core.probe.calls.search"] += 1
    else:
        tracer.counts["ski_core.probe.calls.other"] += 1
    if type(side).__module__.endswith("lambda_ir"):
        # source side: one item's closed term; pinning it keeps id() unique
        key = (id(side), tup)
        tracer.counts["ski_core.probe.source"] += 1
        if key in tracer.seen_probes:
            tracer.counts["ski_core.probe.repeats"] += 1
        else:
            tracer.seen_probes[key] = side
    return len(tup)


def _probe_after(tracer: Tracer, args, result, dur, arity):
    row = tracer.rows["probe_arity"][arity]
    row["probes"] += 1
    row["probe_s"] += dur


def _spend_wrap(tracer: Tracer, orig):
    counts = tracer.counts
    active = tracer.active

    def spend(self):
        if active["ski_core.ski_reduce"]:
            counts["ski_core.steps"] += 1
        elif active["lambda_ir.canonical_normal_form"] or active["lambda_ir.beta_reduce"]:
            counts["lambda_ir.steps"] += 1
        else:
            counts["other.steps"] += 1
        return orig(self)

    return spend


class _SpendHook(Hook):
    def fired(self, tracer: Tracer) -> bool:
        return any(tracer.counts.get(k, 0) for k in ("ski_core.steps", "lambda_ir.steps", "other.steps"))

    def wrap(self, tracer: Tracer, orig):
        return _spend_wrap(tracer, orig)


def _print_bucket(tracer: Tracer) -> str:
    parent = tracer.stack[-1][1] if tracer.stack else ""
    return "cli_pipeline.emit_s" if parent == "cli_pipeline.run_pipeline" else "ski_core.print_s"


def _encode_before(tracer: Tracer, args):
    if tracer.active["mdl_opt.compress_program"]:
        tracer.counts["mdl_opt.encodes"] += 1


def _constraints_after(tracer: Tracer, args, result, dur, ctx):
    n = len(result[0])
    tracer.counts["type_infer.variables"] += n
    tracer.rows["variables"][n]["items"] += 1


def _posterior_before(tracer: Tracer, args):
    return tracer.counts["type_infer.assignments"]


def _posterior_after(tracer: Tracer, args, result, dur, assignments_before):
    row = tracer.rows["variables"][len(args[1])]
    row["specialised"] += 1
    row["posterior_s"] += dur
    row["assignments"] += tracer.counts["type_infer.assignments"] - assignments_before


def _extract_after(tracer: Tracer, args, result, dur, ctx):
    tracer.counts["mdl_opt.extract_accepted"] += len(result[1])


def _explain_after(tracer: Tracer, args, result, dur, ctx):
    # parse_explanation re-explains the term it rebuilt; count each
    # document's sentences once
    if not tracer.active["explainer.parse_explanation"]:
        tracer.counts["explainer.sentences"] += len(result.sentences)


HOOKS = (
    Hook("cli_pipeline.run_pipeline", bucket="cli_pipeline.other_s", feeds=("cli_pipeline.other_s",)),
    Hook("cli_pipeline._emit_program", bucket="cli_pipeline.emit_s", feeds=("cli_pipeline.emit_s",)),
    Hook("lambda_ir.parse_program", bucket="lambda_ir.parse_s",
         feeds=("lambda_ir.parse_s", "lambda_ir.parse.tokens_per_s")),
    Hook("lambda_ir.canonical_normal_form", bucket="lambda_ir.normalize_s",
         counter="lambda_ir.normalize.calls", feeds=("lambda_ir.normalize_s", "lambda_ir.normalize.calls")),
    Hook("lambda_ir.beta_reduce", bucket="lambda_ir.normalize_s", counter="lambda_ir.normalize.calls"),
    Hook("lambda_ir.inline_defs", bucket="lambda_ir.inline_s"),
    Hook("lambda_ir.inline_main", bucket="lambda_ir.inline_s"),
    Hook("lambda_ir.substitute", counter="lambda_ir.substitute.calls", feeds=("lambda_ir.substitute.calls",)),
    _SpendHook("lambda_ir.Fuel.spend", feeds=("lambda_ir.steps", "ski_core.steps")),
    Hook("ski_core.comparison_form", bucket="ski_core.probe_s", before=_probe_before, after=_probe_after,
         feeds=("ski_core.probe_s", "ski_core.probe.calls.search", "ski_core.probe.calls.verify",
                "ski_core.probe.repeat_share")),
    Hook("ski_core.ski_reduce", bucket="ski_core.reduce_s", feeds=("ski_core.reduce_s", "ski_core.steps")),
    Hook("ski_core.behavioral_equal", bucket="ski_core.verify_self_s", feeds=("ski_core.verify_s",)),
    Hook("ski_core.inline_ski_defs", bucket="ski_core.inline_s", feeds=("ski_core.inline_s",)),
    Hook("ski_core.substitute_free", counter="ski_core.substitute_free.calls",
         feeds=("ski_core.substitute_free.calls",)),
    Hook("ski_core.bracket_abstract", bucket="ski_core.encode_s", before=_encode_before,
         feeds=("mdl_opt.encodes",)),
    Hook("ski_core.gael_print_program", bucket=_print_bucket, feeds=("cli_pipeline.emit_s",)),
    Hook("mdl_opt.compress_program", bucket="mdl_opt.search_s",
         feeds=("mdl_opt.search_s", "mdl_opt.encodes", "ski_core.probe.calls.search")),
    Hook("mdl_opt.semantic_distance", bucket="mdl_opt.search_s", counter="mdl_opt.distance.calls",
         feeds=("mdl_opt.distance.calls",)),
    Hook("mdl_opt._inline_item", bucket="ski_core.inline_s"),
    Hook("mdl_opt._extract_with_trace", bucket="mdl_opt.extract_s", after=_extract_after,
         feeds=("mdl_opt.extract_s",)),
    Hook("mdl_opt._apply_extraction", counter="mdl_opt.extract_moves", feeds=("mdl_opt.extract_moves",)),
    Hook("metrics.tokenize", bucket="metrics.tokenize_s", counter="metrics.tokenize.calls",
         feeds=("metrics.tokenize_s", "metrics.tokenize.calls")),
    Hook("metrics.symbolic_density", bucket="metrics.density_s", feeds=("metrics.density_s",)),
    Hook("type_infer.build_constraints", bucket="type_infer.s", after=_constraints_after,
         feeds=("type_infer.s", "type_infer.variables")),
    Hook("type_infer.posterior", bucket="type_infer.s", before=_posterior_before, after=_posterior_after),
    Hook("type_infer.map_assignment", bucket="type_infer.s"),
    Hook("type_infer.specialize_operators", bucket="type_infer.s"),
    Hook("type_infer.energy", counter="type_infer.assignments", feeds=("type_infer.assignments",)),
    Hook("explainer.explain_term", bucket="explainer.roundtrip_s", after=_explain_after,
         feeds=("explainer.roundtrip_s", "explainer.sentences")),
    Hook("explainer.parse_explanation", bucket="explainer.roundtrip_s", counter="explainer.parse.calls",
         feeds=("explainer.roundtrip_s",)),
)

_SKIPPED = re.compile(r"^(\d+) variables")


def skipped_variable_counts(map_types: dict) -> list[int]:
    """Variable counts of the items a report says inference skipped."""
    out = []
    for entry in map_types.values():
        note = entry.get("_skipped") if isinstance(entry, dict) else None
        if note is not None:
            m = _SKIPPED.match(str(note))
            out.append(int(m.group(1)) if m else -1)
    return out
