"""Traced child: run one op with spans around bellsim's public functions.

    python -X importtime tracer.py SPANS_OUT cli ARGV...
    python -X importtime tracer.py SPANS_OUT events SPEC_JSON

Times the import of the entry module, then wraps every public function
of ``states``, ``protocol``, ``harness``, ``bounds``, ``network`` and
``cli`` that is loaded, and rebinds each name (and each dict value) that
refers to one, in every loaded bellsim module, since calls are looked up
there.  ``DensityMatrix`` and ``TwoQubitState`` validation is spanned as
well.  Spans (name, start, end, parent) stay in memory and are written
as JSON to SPANS_OUT when the op ends; the op's own output goes to stdout
unchanged and its exit status is the child's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import events

LAYERS = ("states", "protocol", "harness", "bounds", "network", "cli")
VALIDATED_CLASSES = ("DensityMatrix", "TwoQubitState")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent index]
        self.stack: list[int] = []

    def _open(self, name: str) -> int:
        index = self.name_index.get(name)
        if index is None:
            index = self.name_index[name] = len(self.names)
            self.names.append(name)
        span = len(self.spans)
        self.spans.append([index, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(span)
        return span

    def _close(self, span: int) -> None:
        self.spans[span][2] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens in next(): one span per resumption.
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def install(self) -> None:
        loaded = {layer: sys.modules.get(f"bellsim.{layer}") for layer in LAYERS}
        replacements: dict[int, object] = {}
        for layer, module in loaded.items():
            if module is None:
                continue
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    replacements[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "bellsim" and not module_name.startswith("bellsim."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    setattr(module, name, replacements[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replacements:
                            obj[key] = replacements[id(value)]
        states = loaded["states"]
        if states is not None:
            for class_name in VALIDATED_CLASSES:
                cls = getattr(states, class_name)
                cls.__post_init__ = self.wrap(f"states.{class_name}", cls.__post_init__)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans, **extra}, handle)


def main() -> int:
    out_path, mode, *rest = sys.argv[1:]
    start = time.perf_counter()
    entry = importlib.import_module("bellsim.cli" if mode == "cli" else "bellsim.protocol")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    status, block = 1, None
    try:
        if mode == "cli":
            status = entry.main(rest)
        else:
            block = events.run_block(json.loads(rest[0]))
            status = 0
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, import_s=import_s, block=block)
    return status


if __name__ == "__main__":
    sys.exit(main())
