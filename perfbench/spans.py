"""Span tracing for the benchmark's traced run, installed from outside `src/`.

`install(tracer)` replaces the public functions and class methods of each
layer module of `pkeet` with timing wrappers.  A module-level function is
replaced at every binding site: in its own module and in every other `pkeet`
module (or the package itself) that imported it by name.  `uninstall`
restores the originals.

A span records only a name, its duration and counts derived from argument
sizes (element counts, byte lengths, call outcomes), never argument or
result values, so no key, message, seed or randomness byte enters a trace.
A layer's self time is its span time minus the time of the spans it opened;
a call into a layer from inside a span of the same name (a dispatcher
calling its worker) belongs to the outer span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS = (
    "rng",
    "hashing",
    "ring",
    "sampling",
    "trapdoor_ring",
    "ots",
    "pkeet_ring",
    "matlattice",
    "pkeet_int",
    "serial",
)

# Span names that differ from `<module>.<function>` / `<module>.<Class>.<method>`.
ALIASES = {
    "rng.XofRng.bytes": "rng.bytes",
    "ring.RingContext.ntt": "ring.ntt",
    "ring.RingContext.intt": "ring.intt",
    "sampling.PerturbationCov.__init__": "sampling.perturbation_build",
    "sampling.PerturbationCov.sample": "sampling.perturbation_sample",
    "matlattice.IntTrapdoorBasis.from_matrix": "matlattice.basis_qr",
}

# Constructors are wrapped only when they name a layer operation.
_WRAPPED_INITS = {"sampling.PerturbationCov.__init__"}

ROOT = "bench.op"


class Tracer:
    """In-memory span aggregates: per name, call count, self and inclusive
    time, and counts."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op_walls: list[float] = []
        self.op_layer_s: list[float] = []

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> float:
        dur = time.perf_counter() - frame[1]
        self.stack.pop()
        if self.stack:
            self.stack[-1][2] += dur
        self_s = dur - frame[2]
        stat = self.stats[frame[0]]
        stat["calls"] += 1
        stat["self_s"] += self_s
        stat["incl_s"] += dur
        return dur

    def op(self):
        """Context manager for one workload op: a root span whose duration
        is the op's wall time.  Records the op wall time and the time spent
        in layer spans, which is the sum of their self times."""
        return _OpSpan(self)

    def count(self, name: str, key: str, value: float = 1) -> None:
        self.stats[name][key] += value

    def get(self, name: str, key: str) -> float:
        return self.stats[name][key] if name in self.stats else 0.0

    def reset(self) -> None:
        self.stats.clear()
        self.op_walls.clear()
        self.op_layer_s.clear()


class _OpSpan:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer.stack:
            raise RuntimeError("op span opened inside another span")
        self.frame = self.tracer.enter(ROOT)
        return self

    def __exit__(self, *exc):
        wall = self.tracer.leave(self.frame)
        self.tracer.op_walls.append(wall)
        self.tracer.op_layer_s.append(self.frame[2])
        return False


# ---------------------------------------------------------------------------
# Counts taken at span exit, from argument sizes and outcomes only
# ---------------------------------------------------------------------------


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    out = 1
    for d in shape[:-1]:
        out *= int(d)
    return out


def _count_rng_bytes(t, name, args, kwargs, result, exc):
    t.count(name, "bytes", int(args[1] if len(args) > 1 else kwargs["count"]))


def _count_transform(t, name, args, kwargs, result, exc):
    t.count(name, "rows", _rows(args[1]))


def _count_mulmod(t, name, args, kwargs, result, exc):
    if result is not None:
        t.count(name, "elems", _size(result))


def _count_sample_z(t, name, args, kwargs, result, exc):
    from pkeet import sampling

    if result is None:
        return
    width = float(args[0] if args else kwargs["width"])
    path = "draws_conv" if width > sampling._CDT_WIDTH_LIMIT else "draws_cdt"
    t.count(name, path, _size(result))


def _count_klein(t, name, args, kwargs, result, exc):
    if result is not None:
        t.count(name, "levels", int(result.shape[1]))
        t.count(name, "rows", int(result.shape[0]))


def _count_perturbation_build(t, name, args, kwargs, result, exc):
    from pkeet.errors import CovarianceNotPD

    if isinstance(exc, CovarianceNotPD):
        t.count(name, "not_pd")


def _count_bytes_out(t, name, args, kwargs, result, exc):
    if isinstance(result, (bytes, bytearray)):
        t.count(name, "bytes", len(result))


def _count_bytes_in(t, name, args, kwargs, result, exc):
    data = args[0] if args else None
    if isinstance(data, (bytes, bytearray)):
        t.count(name, "bytes", len(data))


def _count_is_invertible(t, name, args, kwargs, result, exc):
    if t.stack and t.stack[-1][0] == "hashing.hash_to_invertible":
        t.count("hashing.invertible", "rounds")


COUNTERS = {
    "rng.bytes": _count_rng_bytes,
    "ring.ntt": _count_transform,
    "ring.intt": _count_transform,
    "ring.mulmod": _count_mulmod,
    "ring.is_invertible": _count_is_invertible,
    "sampling.sample_z_batch": _count_sample_z,
    "sampling.klein_batch": _count_klein,
    "sampling.perturbation_build": _count_perturbation_build,
    "serial.encode": _count_bytes_out,
    "serial.decode": _count_bytes_in,
}

# trap_gen's retry loop is read off the spans it opens: one `norm` check per
# trapdoor draw, one perturbation build per draw that passes the norm cap.
_TRAP_GEN = "trapdoor_ring.trap_gen"
_DRAW = "trapdoor_ring.RingTrapdoor.norm"
_BUILD = "sampling.perturbation_build"


def _trap_gen_enter(t):
    return (t.get(_DRAW, "calls"), t.get(_BUILD, "calls"), t.get(_BUILD, "not_pd"))


def _trap_gen_exit(t, before, exc):
    from pkeet.errors import GenerationFailed

    draws = t.get(_DRAW, "calls") - before[0]
    builds = t.get(_BUILD, "calls") - before[1]
    t.count(_TRAP_GEN, "draws", draws)
    t.count(_TRAP_GEN, "rejects_norm", draws - builds)
    t.count(_TRAP_GEN, "rejects_pd", t.get(_BUILD, "not_pd") - before[2])
    if isinstance(exc, GenerationFailed):
        t.count(_TRAP_GEN, "failed")


def span_name(module: str, qualname: str) -> str:
    """Span name of `module.qualname`: serial codecs fold into two layers."""
    full = f"{module}.{qualname}"
    if module == "serial" and "." not in qualname:
        if qualname.startswith("encode_"):
            return "serial.encode"
        if qualname.startswith("decode_"):
            return "serial.decode"
    return ALIASES.get(full, full)


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)
    is_trap_gen = name == _TRAP_GEN

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        if not stack or stack[-1][0] == name:
            # Outside an op, or a dispatcher calling into its own layer.
            return fn(*args, **kwargs)
        before = _trap_gen_enter(tracer) if is_trap_gen else None
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            # `exc` is unbound when this block ends, so no traceback cycle
            # keeps the failed call's arrays alive.
            done(frame, before, args, kwargs, None, exc)
            raise
        done(frame, before, args, kwargs, result, None)
        return result

    def done(frame, before, args, kwargs, result, exc):
        tracer.leave(frame)
        if counter is not None:
            counter(tracer, name, args, kwargs, result, exc)
        if is_trap_gen:
            _trap_gen_exit(tracer, before, exc)

    return wrapper


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if (
            not attr.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__
        ):
            yield attr, obj


def _public_classes(mod):
    for attr, obj in vars(mod).items():
        if not attr.startswith("_") and isinstance(obj, type) and obj.__module__ == mod.__name__:
            yield attr, obj


class Installation:
    """The patches made by :func:`install`, undone by :meth:`uninstall`."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.patches):
            setattr(owner, attr, old)
        self.patches.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every public function and method of the layer modules."""
    inst = Installation()
    modules = {layer: importlib.import_module(f"pkeet.{layer}") for layer in LAYERS}
    binding_sites = [m for n, m in sys.modules.items() if n == "pkeet" or n.startswith("pkeet.")]
    for layer, mod in modules.items():
        for attr, fn in _public_functions(mod):
            name = span_name(layer, attr)
            wrapper = _wrap(tracer, name, fn)
            for site in binding_sites:
                for site_attr, obj in list(vars(site).items()):
                    if obj is fn:
                        inst.patch(site, site_attr, wrapper)
        for cls_name, cls in _public_classes(mod):
            for attr, member in list(vars(cls).items()):
                full = f"{layer}.{cls_name}.{attr}"
                if attr.startswith("_") and full not in _WRAPPED_INITS:
                    continue
                name = span_name(layer, f"{cls_name}.{attr}")
                if isinstance(member, classmethod):
                    new = classmethod(_wrap(tracer, name, member.__func__))
                elif callable(member) and not isinstance(member, (staticmethod, type)):
                    new = _wrap(tracer, name, member)
                else:
                    continue
                inst.patch(cls, attr, new)
    return inst
