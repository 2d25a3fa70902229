"""README "Python API" names only what the package has: every backticked
dotted name there of the form metrics.X, scenario.X, simcore.X, flow.X or
reorder.X resolves on its module, each Stream.X or stream.X on a stream,
and each MetricsLog.X or log.X on a log."""

import re
from importlib import import_module
from pathlib import Path

from mptunnel import metrics

README = Path(__file__).resolve().parent.parent / "README.md"
NAME = re.compile(r"(?<![\w.])(metrics|scenario|simcore|flow|reorder|Stream|stream|MetricsLog|log)"
                  r"((?:\.\w+)+)")


def python_api_names(readme: str) -> set[str]:
    """Every dotted name of the forms above in a code span of the section;
    a span naming a file, such as scenario.py, names none."""
    section = readme.split("\n## Python API", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    return {m.group(0) for span in re.findall(r"`([^`]+)`", section)
            if not span.endswith(".py") for m in NAME.finditer(span)}


def unresolved(names) -> list[str]:
    stream, log = metrics.Stream("sends"), metrics.MetricsLog()
    roots = {"Stream": stream, "stream": stream, "MetricsLog": log, "log": log}
    missing = []
    for name in sorted(names):
        head, *path = name.split(".")
        obj = roots[head] if head in roots else import_module(f"mptunnel.{head}")
        for attr in path:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    return missing


def test_python_api_names_resolve():
    names = python_api_names(README.read_text())
    assert {"metrics.STREAMS", "stream.column", "MetricsLog.seal"} <= names
    assert unresolved(names) == []
