"""Span tracing of the securepim package from outside it.

``Tracer.install`` replaces the public functions and methods of each module
with timing wrappers, including every name another module bound to them with
``from ... import ...``.  Spans live in memory as
``[name, start_ns, end_ns, parent, op_id]`` and are only recorded inside an
op opened with ``Tracer.op``, so the harness's untimed reference runs leave
no trace.  A span's layer is the text before the first dot of its name.
"""

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

ROOT = "bench.op"

# module -> functions wrapped by name; "Class.method" entries patch the class.
TRACED = {
    "kernels": ["gemv", "gemv_t", "embedding", "tag_columns", "poly_hash",
                "dot_tags"],
    "mac": ["lift", "gen_tags", "tag_kernel_gemv", "hash_result", "verify",
            "seal_tags", "open_tags"],
    "crypto": ["KeyStore.register", "KeyStore.consume", "KeyStore.otp_words",
               "KeyStore.seal", "KeyStore.open", "KeyStore.derive_mac_secret",
               "KeyStore._blocks"],
    "sharing": ["host_share", "split", "reconstruct", "reshare"],
    "ring": ["to_signed", "trunc", "fx_encode", "fx_encode_nearest",
             "fx_decode", "fx_mul_trunc", "to_signed_array",
             "from_signed_array", "trunc_array", "fx_mul_trunc_array",
             "relu_array", "clamp_unit_array"],
    "yao.garble": ["garble", "evaluate"],
    "yao.switch": ["prepare_switch"],
    "yao.circuit": ["word_to_bits", "bits_to_word"],
    "pimsim": ["PimDevice.arm_tamper", "PimDevice.load", "PimDevice.store",
               "PimDevice.gemv", "PimDevice.matvec_rows",
               "PimDevice.matvec_cols", "PimDevice.embedding",
               "PimDevice.gemv_enc", "PimDevice.matvec_enc",
               "PimDevice.embedding_enc", "PimDevice.evaluate_garbled"],
    "host": ["Session.__init__", "Session.check_verified",
             "Session.seal_tag_store", "Session.open_tag_store",
             "Session.a2y_activation", "PublicMatrixOp.__init__",
             "PublicMatrixOp.apply", "PrivateMatrixOp.__init__",
             "PrivateMatrixOp.matvec", "PrivateMatrixOp.matvec_t",
             "EmbeddingOp.__init__", "EmbeddingOp.lookup"],
    "workloads": ["run_workload"],
    "cli": ["build_report", "render", "result_digest"],
}

OFFLINE = {"host.Session.__init__", "host.PublicMatrixOp.__init__",
           "host.PrivateMatrixOp.__init__", "host.EmbeddingOp.__init__"}
ONLINE = {"host.PublicMatrixOp.apply", "host.PrivateMatrixOp.matvec",
          "host.PrivateMatrixOp.matvec_t", "host.EmbeddingOp.lookup",
          "host.Session.a2y_activation"}
VERIFY = {"host.Session.check_verified", "host.Session.open_tag_store"}
REPORT = {"cli.build_report", "cli.render", "cli.result_digest"}
DEVICE_KERNELS = ("gemv", "matvec_cols", "embedding", "gemv_enc",
                  "matvec_enc", "embedding_enc", "evaluate_garbled")

# per-layer metric -> the spans whose outermost calls it times, inclusive
INCLUSIVE = {
    **{f"kernels.{fn}_s": {f"kernels.{fn}"}
       for fn in ("tag_columns", "poly_hash", "gemv", "gemv_t", "embedding",
                  "dot_tags")},
    **{f"mac.{fn}_s": {f"mac.{fn}"}
       for fn in ("gen_tags", "hash_result", "tag_kernel_gemv", "lift")},
    "yao.garble_s": {"yao.garble"},
    "yao.evaluate_s": {"yao.evaluate"},
    "pimsim.load_s": {"pimsim.PimDevice.load"},
    "host.offline_s": OFFLINE,
    "host.online_s": ONLINE,
    "host.verify_s": VERIFY,
    "cli.report_s": REPORT,
}
_METRICS_OF = defaultdict(list)
for _metric, _names in INCLUSIVE.items():
    for _name in _names:
        _METRICS_OF[_name].append(_metric)

LAYERS = ("bench", "workloads", "host", "pimsim", "kernels", "mac", "crypto",
          "sharing", "yao", "ring", "cli")


def _size(a):
    return int(np.size(a))


_AND_COUNTS = {}  # id(circuit) -> (circuit, AND gates); circuits are cached


def _and_count(circuit):
    key = id(circuit)
    if key not in _AND_COUNTS:
        _AND_COUNTS[key] = (circuit, circuit.and_count)
    return _AND_COUNTS[key][1]


def _evaluated(args, kwargs, result):
    transcript = kwargs.get("transcript", args[2] if len(args) > 2 else None)
    if transcript is not None:  # the host passes a fresh transcript per call
        return len(transcript.row_matches)
    return _and_count(args[0].circuit) if result is not None else 0


# span name -> (counter, count(args, kwargs, result)); called after the call,
# also when it raised (result None).
COUNTERS = {
    "kernels.gemv": ("kernels.ring_words", lambda a, k, r: _size(a[0])),
    "kernels.gemv_t": ("kernels.ring_words", lambda a, k, r: _size(a[0])),
    "kernels.embedding": ("kernels.ring_words", lambda a, k, r: _size(a[0])),
    "kernels.tag_columns": ("kernels.mac_terms", lambda a, k, r: _size(a[0])),
    "kernels.poly_hash": ("kernels.mac_terms", lambda a, k, r: _size(a[0])),
    "kernels.dot_tags": ("kernels.mac_terms", lambda a, k, r: _size(a[0])),
    "crypto.KeyStore._blocks": ("crypto.prf_blocks", lambda a, k, r: a[5]),
    "sharing.split": ("sharing.split_calls", lambda a, k, r: 1),
    "yao.garble": ("yao.and_gates_garbled",
                   lambda a, k, r: _and_count(a[0])),
    "yao.evaluate": ("yao.and_gates_evaluated", _evaluated),
    "host.Session.check_verified": ("host.verify_calls", lambda a, k, r: 1),
    **{f"pimsim.PimDevice.{m}": ("pimsim.kernel_calls", lambda a, k, r: 1)
       for m in DEVICE_KERNELS},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> counter
        self._stack = []
        self._op = -1

    # -- recording ------------------------------------------------------------

    def op(self, op_id: int):
        return _OpSpan(self, op_id)

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0, 0, stack[-1], tracer._op]
            spans.append(rec)
            stack.append(idx)
            result = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if counter is not None:
                    tracer.counts[tracer._op][counter[0]] += int(
                        counter[1](args, kwargs, result))

        return wrapper

    def install(self):
        """Patch every name in TRACED wherever a securepim module bound it."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "securepim" or n.startswith("securepim.")}
        for module, attrs in TRACED.items():
            mod = mods[f"securepim.{module}"]
            for attr in attrs:
                name = f"{module.split('.')[0]}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig)
                for other in mods.values():
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, wrapped)

    # -- analysis -------------------------------------------------------------

    def per_op(self):
        """Per traced op: self time by span name, INCLUSIVE times, counts.

        Self time is a span's duration minus its children's; an INCLUSIVE
        metric adds up the spans of its set that have no ancestor in the
        set, so nested calls count once.  Raises ValueError when
        a span escapes its parent or an op's self times do not sum to its
        root span's duration.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        ops = {}
        for i, (name, t0, t1, parent, op_id) in enumerate(spans):
            if parent < 0:
                ops[op_id] = {"dur_ns": t1 - t0, "self": defaultdict(int),
                              "incl": defaultdict(int),
                              "counts": self.counts.get(op_id, {})}
        for i, (name, t0, t1, parent, op_id) in enumerate(spans):
            o = ops[op_id]
            if parent >= 0:
                p = spans[parent]
                if t0 < p[1] or t1 > p[2] or p[4] != op_id:
                    raise ValueError(f"span {name} escapes its parent {p[0]}")
            o["self"][name] += (t1 - t0) - child_ns[i]
            for metric in _METRICS_OF.get(name, ()):
                if not self._has_ancestor_in(i, INCLUSIVE[metric]):
                    o["incl"][metric] += t1 - t0
        for op_id, o in ops.items():
            total = sum(o["self"].values())
            if total != o["dur_ns"]:
                raise ValueError(
                    f"op {op_id}: layer self times sum to {total} ns, "
                    f"traced duration is {o['dur_ns']} ns")
        return ops

    def _has_ancestor_in(self, i, names):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _OpSpan:
    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        t = self.tracer
        t._op = self.op_id
        self.idx = len(t.spans)
        self.rec = [ROOT, 0, 0, -1, self.op_id]
        t.spans.append(self.rec)
        t._stack.append(self.idx)
        self.rec[1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False


def layer_metrics(ops):
    """Per-op means of the per-layer metrics over the traced ops."""
    n_ops = len(ops)
    tot = defaultdict(float)
    for o in ops.values():
        for name, ns in o["self"].items():
            tot[f"{name.split('.')[0]}.self_s"] += ns / 1e9
            tot[f"self:{name}"] += ns / 1e9
        for metric, ns in o["incl"].items():
            tot[metric] += ns / 1e9
        for key, val in o["counts"].items():
            tot[key] += val
    per = {k: v / n_ops for k, v in tot.items()}

    m = {f"{layer}.self_s": per.get(f"{layer}.self_s", 0.0)
         for layer in LAYERS}
    for metric in INCLUSIVE:
        m[metric] = per.get(metric, 0.0)
    m["yao.switch_self_s"] = per.get("self:yao.prepare_switch", 0.0)
    for key, _ in COUNTERS.values():
        m[key] = per.get(key, 0.0)
    return m
