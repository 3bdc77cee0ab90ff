"""Span recorder for the benchmark's traced run.

Program functions are wrapped from outside, at the module or class attribute
their callers look up at call time (``trunctet.volume.dilog``, not the
re-export in ``trunctet/__init__``), so ``src/`` needs no instrumentation.
Each wrapped call is a span with a parent; a span's self time is its
duration minus the time covered by its child spans. Calls of leaf functions
(``dilog`` runs 16 times per volume) are not stored one by one: their count
and time are added to the enclosing span's record, which keeps memory
bounded. The program is single-threaded, so a span never waits on another
and no waiting time is recorded.
"""

import time
from array import array

import numpy as np
import trunctet.cli
import trunctet.convert
import trunctet.domain
import trunctet.extremal
import trunctet.schlafli
import trunctet.tetra
import trunctet.volume


def _rows(args, result):
    return {"rows": len(args[0])}


def _accepted(args, result):
    return {"accepted": len(result)}


def _boundary(args, result):
    return {"boundary_hits": int(result.reason == trunctet.extremal.TERMINATED_BOUNDARY)}


#: (layer name, owner whose attribute callers look up, attribute, leaf, counter hook)
TRACE_POINTS = (
    ("specfun.dilog", trunctet.volume, "dilog", True, None),
    ("volume.ushijima_volume", trunctet.volume, "ushijima_volume", False, None),
    ("convert.angles_to_lengths_batch", trunctet.convert, "angles_to_lengths_batch", True, _rows),
    ("convert.angles_to_lengths", trunctet.convert, "angles_to_lengths", True, None),
    ("convert.lengths_to_angles", trunctet.convert, "lengths_to_angles", False, None),
    ("domain.in_O_mask", trunctet.domain, "in_O_mask", True, _rows),
    ("domain.acute_mask", trunctet.domain, "acute_mask", True, None),
    ("domain.in_O", trunctet.domain, "in_O", True, None),
    ("tetra.Tetrahedron.from_angles", trunctet.tetra.Tetrahedron, "from_angles", False, None),
    ("tetra.regular_from_length", trunctet.extremal, "regular_from_length", False, None),
    ("tetra.sample_O_batch", trunctet.tetra, "sample_O_batch", False, _accepted),
    ("schlafli.dvol_dlengths", trunctet.schlafli, "dvol_dlengths", False, None),
    ("extremal.sample_T_ell", trunctet.extremal, "sample_T_ell", False, _accepted),
    ("extremal.verify_theorem", trunctet.extremal, "verify_theorem", False, None),
    ("extremal.verify_fixed_angle_sum", trunctet.extremal, "verify_fixed_angle_sum", False, None),
    ("extremal.deformation_flow", trunctet.extremal, "deformation_flow", False, _boundary),
    ("cli.main", trunctet.cli, "main", False, None),
)

#: layers whose rejection samplers draw their proposals through these masks
_PROPOSAL_MASKS = ("domain.in_O_mask", "domain.acute_mask")

MAX_SPANS = 2_000_000


class Recorder:
    """Per-layer counters plus a bounded in-memory span table."""

    def __init__(self):
        self.names = [point[0] for point in TRACE_POINTS]
        n = len(self.names)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self.counters = {}
        # (parent layer or -1, child layer) -> [calls, seconds, rows]
        self.edges = {}
        self.stack = []
        self.next_span = 0
        self.dropped_spans = 0
        self.spans = {
            "id": array("q"), "layer": array("i"), "parent": array("q"),
            "start": array("d"), "end": array("d"),
            "leaf_calls": array("q"), "leaf_s": array("d"),
        }
        self._saved = []

    # -- installation ----------------------------------------------------

    def install(self):
        for index, (_, owner, attr, leaf, hook) in enumerate(TRACE_POINTS):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, index, leaf, hook))
            else:
                wrapped = self._wrap(original, index, leaf, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, index, leaf, hook):
        perf = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # frame: child seconds, leaf calls, leaf seconds, span id, layer
            frame = [0.0, 0, 0.0, -1, index]
            if not leaf:
                frame[3] = self.next_span
                self.next_span += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[index] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                self._close(index, leaf, frame, parent, start, end, args)
            if hook is not None:
                for key, value in hook(args, result).items():
                    name = f"{self.names[index]}.{key}"
                    self.counters[name] = self.counters.get(name, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, index, leaf, frame, parent, start, end, args):
        duration = end - start
        self.calls[index] += 1
        self.total_s[index] += duration
        self.self_s[index] += duration - frame[0]
        parent_index = -1
        if parent is not None:
            parent[0] += duration
            parent_index = parent[4]
            if leaf:
                parent[1] += 1
                parent[2] += duration
        edge = self.edges.setdefault((parent_index, index), [0, 0.0, 0])
        edge[0] += 1
        edge[1] += duration
        if leaf and self.names[index] in _PROPOSAL_MASKS:
            edge[2] += len(args[0])
        if not leaf:
            spans = self.spans
            if len(spans["id"]) >= MAX_SPANS:
                self.dropped_spans += 1
                return
            spans["id"].append(frame[3])
            spans["layer"].append(index)
            spans["parent"].append(parent[3] if parent is not None else -1)
            spans["start"].append(start)
            spans["end"].append(end)
            spans["leaf_calls"].append(frame[1])
            spans["leaf_s"].append(frame[2])

    # -- results -----------------------------------------------------------

    def layer(self, name):
        return self.names.index(name)

    def proposals(self, name):
        """Rows drawn through the polytope masks by direct calls from ``name``."""
        parent = self.layer(name)
        return sum(
            self.edges.get((parent, self.layer(mask)), (0, 0.0, 0))[2]
            for mask in _PROPOSAL_MASKS
        )

    def child_calls(self, parent_name, child_name):
        edge = self.edges.get((self.layer(parent_name), self.layer(child_name)))
        return edge[0] if edge else 0

    def save(self, path):
        np.savez_compressed(
            path,
            layers=np.array(self.names),
            **{key: np.array(col, dtype=col.typecode) for key, col in self.spans.items()},
        )


def layer_metrics(rec, setup_rec, ops):
    """Per-layer metrics of a traced phase of ``ops`` operations, as
    name -> (value, unit). Counts and self times are per operation, except
    for ``tetra.sample_O_batch``, which only runs while the inputs are made
    and is read from ``setup_rec`` as totals over the set-up."""
    out = {}
    for name in rec.names:
        if name == "domain.acute_mask":
            continue  # only feeds the samplers' proposal counts
        if name == "tetra.sample_O_batch":
            source, scale, per = setup_rec, 1.0, ""
        else:
            source, scale, per = rec, 1.0 / ops, "/op"
        i = source.layer(name)
        out[f"{name}.calls"] = (source.calls[i] * scale, "count" + per)
        out[f"{name}.self_s"] = (source.self_s[i] * scale, "s" + per)
        out[f"{name}.errors"] = (source.errors[i], "count")

    def ratio(num, den):
        return num / den if den else 0.0

    i = rec.layer("volume.ushijima_volume")
    out["volume.ushijima_volume.us_per_call"] = (1e6 * ratio(rec.total_s[i], rec.calls[i]), "us")
    for name in ("convert.angles_to_lengths_batch", "domain.in_O_mask"):
        out[f"{name}.rows"] = (rec.counters.get(f"{name}.rows", 0) / ops, "count/op")

    proposals = setup_rec.proposals("tetra.sample_O_batch")
    accepted = setup_rec.counters.get("tetra.sample_O_batch.accepted", 0)
    out["tetra.sample_O_batch.proposals"] = (proposals, "count")
    out["tetra.sample_O_batch.accept_ratio"] = (ratio(accepted, proposals), "ratio")

    proposals = rec.proposals("extremal.sample_T_ell")
    accepted = rec.counters.get("extremal.sample_T_ell.accepted", 0)
    out["extremal.sample_T_ell.proposals"] = (proposals / ops, "count/op")
    out["extremal.sample_T_ell.accepted"] = (accepted / ops, "count/op")
    out["extremal.sample_T_ell.accept_ratio"] = (ratio(accepted, proposals), "ratio")

    steps = rec.child_calls("extremal.deformation_flow", "convert.lengths_to_angles")
    out["extremal.deformation_flow.steps"] = (steps / ops, "count/op")
    out["extremal.deformation_flow.boundary_hits"] = (
        rec.counters.get("extremal.deformation_flow.boundary_hits", 0), "count")
    return out
