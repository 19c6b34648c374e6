"""Spans around the program's public functions, installed from outside.

The tracer replaces each listed function (or method) on its module or class
with a wrapper that records one span: name, start, end and the span that was
open when it was called.  Spans live in flat arrays while the run lasts and
are written out once it ends; self times are computed from them afterwards.
Nothing under src/ knows about the tracer.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import Counter

WRAPPED = {
    "trees": (
        "enumerate_strata", "tree_from_splits", "canonical_form",
        "forget_pushforward", "glue_substitution",
    ),
    "homology": (
        "homology_basis", "km_relations", "class_reduce", "forget_vec",
        "intersection_pairing_h2", "pairing_rows", "solve_class_from_pairings",
    ),
    "linalg": (
        "RowSpace.add", "RowSpace.residual", "RowSpace.rref", "solve_exact",
        "char_poly", "largest_real_root", "spectral_radius_float",
    ),
    "filtration": (
        "lambda_subspace", "below_subspace", "omega_quotient",
        "FiltrationSubspace.contains",
    ),
    "hassett": ("stable_vertices", "reduction_kernel", "is_minimal"),
    "hurwitz": (
        "validate", "fully_mark", "enumerate_cover_classes", "enumerate_cover_types",
        "count_covers", "count_covers_orbit_stabilizer", "degeneration_degree_check",
    ),
    "pushforward": (
        "pushforward_h0", "pushforward_h2", "self_correspondence_matrix",
        "dynamical_degree", "filtration_blocks",
    ),
    "cli": ("main",),
}

# Work counts read off a wrapped function's return value.
OUTPUT_COUNTS = {
    "trees.enumerate_strata": ("strata_out", len),
    "homology.km_relations": ("rows_out", len),
    "hurwitz.enumerate_cover_classes": ("classes_out", len),
    "linalg.RowSpace.add": ("pivots_out", lambda pivot: pivot is not None),
}

ROOT_SPAN = "bench.op"


def span_names():
    """Every span name, wrapped functions first, then the benchmark's root."""
    return ["%s.%s" % (mod, fn) for mod, fns in WRAPPED.items() for fn in fns] + [ROOT_SPAN]


def per_layer_names():
    """The metric names a traced run reports, in a fixed order."""
    out = []
    for name in span_names():
        out += [name + ".calls", name + ".self_s"]
    out += [
        "trees.enumerate_strata.strata_out",
        "homology.km_relations.rows_out",
        "homology.homology_basis.hit_ratio",
        "linalg.RowSpace.add.useful_ratio",
        "hurwitz.enumerate_cover_classes.classes_out",
        "cli.main.bytes_out",
        "trace_overhead_ratio",
        "trace_cover_ratio",
    ]
    return out


class Tracer:
    """Records spans in flat arrays; one instance per traced batch."""

    def __init__(self):
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = [-1]
        self._undo = []

    def begin(self, name):
        idx = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        nid = self._ids[name]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts
        clock = time.perf_counter
        out = OUTPUT_COUNTS.get(name)
        out_key = None if out is None else "%s.%s" % (name, out[0])
        out_fn = None if out is None else out[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if out_key is not None:
                counts[out_key] += out_fn(result)
            return result

        return wrapper

    def install(self, lib):
        """Wrap every listed function of the freshly imported package `lib`.

        Returns the names that no longer exist; they report zero calls.
        """
        missing = []
        for mod, fns in WRAPPED.items():
            module = getattr(lib, mod)
            for qual in fns:
                owner, attr = module, qual
                if "." in qual:
                    cls, attr = qual.split(".")
                    owner = getattr(module, cls, None)
                orig = None if owner is None else owner.__dict__.get(attr)
                if orig is None:
                    missing.append("%s.%s" % (mod, qual))
                    continue
                setattr(owner, attr, self._wrap("%s.%s" % (mod, qual), orig))
                self._undo.append((owner, attr, orig))
        return missing

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def self_times(self):
        """(calls, self seconds) per span name."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return calls, self_s

    def write(self, path):
        """One JSON header line, then the raw name, parent, start, end arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "arrays": [
                ["name_id", self.name_id.typecode],
                ["parent", self.parent.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)

    def metrics(self, traced_wall, untraced_wall):
        calls, self_s = self.self_times()
        out = {}
        for name in self.names:
            out[name + ".calls"] = (calls[name], "count")
            out[name + ".self_s"] = (self_s[name], "s")
        c = self.counts
        basis_calls = calls["homology.homology_basis"]
        add_calls = calls["linalg.RowSpace.add"]
        out["trees.enumerate_strata.strata_out"] = (c["trees.enumerate_strata.strata_out"], "count")
        out["homology.km_relations.rows_out"] = (c["homology.km_relations.rows_out"], "count")
        out["homology.homology_basis.hit_ratio"] = (
            1 - calls["homology.km_relations"] / basis_calls if basis_calls else 0.0, "ratio")
        out["linalg.RowSpace.add.useful_ratio"] = (
            c["linalg.RowSpace.add.pivots_out"] / add_calls if add_calls else 0.0, "ratio")
        out["hurwitz.enumerate_cover_classes.classes_out"] = (
            c["hurwitz.enumerate_cover_classes.classes_out"], "count")
        out["cli.main.bytes_out"] = (c["cli.main.bytes_out"], "bytes")
        out["trace_overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
        # self times of all spans add up to the root spans' durations, so this
        # is the share of the traced batch that the spans account for
        out["trace_cover_ratio"] = (sum(self_s.values()) / traced_wall, "ratio")
        return out
