"""Reachability map: the ``src/`` functions that tier-1, the four end-to-end
workloads and ``examples/`` never call.  Run ``python tests/reachability.py``.

Only call events are traced.  Child processes are followed: a
``sitecustomize`` first on ``PYTHONPATH`` starts the tracer in every
interpreter, which records each newly called ``(file, first line)`` with one
``os.write``, so forked and killed processes lose nothing.  Stdlib only.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
HOOK = """import os, sys, threading
_seen, _fd = set(), os.open({out!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
def _call(frame, event, arg):
    key = (frame.f_code.co_filename, frame.f_code.co_firstlineno)
    if key not in _seen and key[0].startswith({src!r}):
        _seen.add(key)
        os.write(_fd, ("%s:%d\\n" % key).encode())
sys.settrace(_call)
threading.settrace(_call)
"""
RUNS = [
    ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
    ["benchmarks/e2e/run.py", "--seed", "1", "--seconds", "2"],
    *[[str(path)] for path in sorted((ROOT / "examples").glob("*.py"))],
]


def main() -> int:
    with tempfile.TemporaryDirectory() as hook_dir:
        out = os.path.join(hook_dir, "called.txt")
        Path(hook_dir, "sitecustomize.py").write_text(HOOK.format(out=out, src=SRC))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([hook_dir, SRC]))
        for argv in RUNS:
            subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        lines = Path(out).read_text().splitlines()
    called = {(path, int(n)) for path, _, n in (line.rpartition(":") for line in lines)}
    unreached, spanned = 0, set()
    for path in sorted(Path(SRC).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if (str(path), first) not in called:
                    span = range(first, node.end_lineno + 1)
                    print(f"{path.relative_to(ROOT)}:{first} {node.name} ({len(span)} lines)")
                    unreached += 1  # a def nested in an unreached def counts its lines once
                    spanned.update((path, n) for n in span)
    print(f"unreached: {unreached} functions, {len(spanned)} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
