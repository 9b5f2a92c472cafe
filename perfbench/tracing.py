"""Span tracing of the evrecon layers, installed from outside the package.

`Tracer.install()` wraps every public function and every public method of
each layer module (`evrecon.autodiff`, `evrecon.model`, ...) and rebinds
the wrapper under every name that refers to the original, in every
`evrecon` module. That matters because modules import names directly:
`evrecon.training` looks up its own `generate_events` binding, so
wrapping `evrecon.synthetic` alone would miss those calls. `uninstall()` restores every binding.

A span is one call of a wrapped callable. Spans are aggregated as they
close, so memory stays flat however long the run: per span name the call
count, the inclusive time and the self time (inclusive time minus the time
covered by child spans); per layer the time spent inside the layer from
the outside (spans entered from another layer or from the benchmark) and
its self time. Methods of objects that carry a string `name` (the conv
stages) get one span name per instance, e.g.
`model.ConvStage.forward[up3]`.

Every recorded autodiff node also gets its backward closure wrapped, as a
span named after the op that recorded it (`autodiff.conv2d.bw`), and
counted, so the backward pass splits by op and the tape size is known.
"""

import functools
import inspect
import sys
import time

LAYERS = ("autodiff", "model", "neurons", "events", "training", "synthetic",
          "quality", "checkpoint", "energy")


class Tracer:
    def __init__(self):
        self.spans = {}    # span name -> [count, inclusive s, self s]
        self.layers = {layer: [0, 0.0, 0.0] for layer in LAYERS}  # spans, entered s, self s
        self.tape_nodes = 0
        self._stack = []   # open spans: [span name, layer, child s]
        self._undo = []

    # -- recording -------------------------------------------------------
    def _wrap(self, span, layer, fn, per_instance=False):
        """A traced stand-in for `fn`; kept lean, it runs on every op."""
        stack, clock, spans = self._stack, time.perf_counter, self.spans
        lay = self.layers[layer]
        fixed = spans.setdefault(span, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            name, agg = span, fixed
            if per_instance and args:
                label = getattr(args[0], "name", None)
                if isinstance(label, str):
                    name = f"{span}[{label}]"
                    agg = spans.setdefault(name, [0, 0.0, 0.0])
            frame = [name, layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[2]
                agg[0] += 1
                agg[1] += duration
                agg[2] += own
                lay[0] += 1
                lay[2] += own
                if stack:
                    parent = stack[-1]
                    parent[2] += duration
                    if parent[1] != layer:
                        lay[1] += duration
                else:
                    lay[1] += duration

        return traced

    def _wrap_make_op(self, make_op):
        stack = self._stack

        def traced_make_op(data, parents, bw):
            out = make_op(data, parents, bw)
            if out._bw is not None:
                self.tape_nodes += 1
                op, layer = (stack[-1][0], stack[-1][1]) if stack else ("autodiff.op", "autodiff")
                out._bw = self._wrap(f"{op}.bw", layer, out._bw)
            return out

        return traced_make_op

    # -- installation ----------------------------------------------------
    def _rebind(self, original, replacement, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "evrecon" or name.startswith("evrecon.")) and m is not None]
        for layer in LAYERS:
            module = sys.modules[f"evrecon.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    if layer == "autodiff" and name == "make_op":
                        wrapped = self._wrap_make_op(obj)
                    else:
                        wrapped = self._wrap(f"{layer}.{name}", layer, obj)
                    functools.update_wrapper(wrapped, obj)
                    self._rebind(obj, wrapped, modules)

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                fn = functools.update_wrapper(self._wrap(span, layer, attr.__func__),
                                              attr.__func__)
                wrapped = type(attr)(fn)
            elif inspect.isfunction(attr):
                wrapped = functools.update_wrapper(
                    self._wrap(span, layer, attr, per_instance=True), attr)
            else:
                continue
            self._undo.append((cls, name, attr))
            setattr(cls, name, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading ---------------------------------------------------------
    def snapshot(self):
        """Copy of the span aggregates, for a phase boundary."""
        return ({k: list(v) for k, v in self.spans.items()},
                {k: list(v) for k, v in self.layers.items()}, self.tape_nodes)

    def idle_layers(self, layers):
        """The listed layers that recorded no span."""
        return [layer for layer in layers if self.layers[layer][0] == 0]


def delta(after, before):
    """Span aggregates recorded between two snapshots."""
    spans_a, layers_a, tape_a = after
    spans_b, layers_b, tape_b = before
    spans = {k: [x - y for x, y in zip(v, spans_b.get(k, [0, 0.0, 0.0]))]
             for k, v in spans_a.items()}
    layers = {k: [x - y for x, y in zip(v, layers_b[k])] for k, v in layers_a.items()}
    return spans, layers, tape_a - tape_b
