"""Importing the package generates no method and loads no ``typing``.

``dataclass`` writes each method it adds as source and compiles it, which
took most of the package's import time; the package's value classes take
their methods from ``records`` instead. A fresh interpreter, started with
``-S`` so that only the package's own imports run, counts every method
``dataclasses._create_fn`` makes and every source that the package or
``dataclasses`` compiles from a string while the body runs.
The self-test counts a class declared the old way, and a class's
constructor and ``__eq__`` are each compiled once, on first use.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import basecat

SRC = Path(basecat.__file__).resolve().parents[1]

PROBE = r"""
import dataclasses, json, sys
sys.path.insert(0, {src!r})

made, compiled = [], []
create = dataclasses._create_fn

def counted_create(name, *args, **kwargs):
    made.append(name)
    return create(name, *args, **kwargs)

def hook(event, args):
    # Sources compiled from a string by the package (named by the method
    # ``records`` generates) or by ``dataclasses``.
    if event == "compile" and args[1] == "<string>":
        caller = sys._getframe(1)
        if caller.f_code.co_filename.startswith({package!r}):
            compiled.append(f"{{caller.f_locals['cls'].__qualname__}}.{{caller.f_locals['name']}}")
        elif caller.f_code.co_filename == dataclasses.__file__:
            compiled.append("dataclasses")

dataclasses._create_fn = counted_create
sys.addaudithook(hook)
{body}
print(json.dumps({{"made": made, "compiled": compiled, "typing": "typing" in sys.modules}}))
"""


def _probe(body: str) -> dict:
    package = str(SRC / "basecat")
    script = PROBE.format(src=str(SRC), package=package, body=body)
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_importing_the_package_generates_only_the_constructor_it_uses():
    # ``dsl._NOWHERE`` is built at import, so its class's constructor is
    # the only one generated; every other waits for its first instance.
    got = _probe("import basecat")
    assert got == {"made": [], "compiled": ["SourceSpan.__init__"], "typing": False}


def test_a_class_declared_the_old_way_is_counted():
    got = _probe(
        "import basecat\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Old:\n"
        "    a: int\n"
    )
    assert sorted(got["made"]) == ["__delattr__", "__eq__", "__hash__", "__init__", "__repr__", "__setattr__"]
    assert got["compiled"] == ["SourceSpan.__init__"] + ["dataclasses"] * 6


def test_a_constructor_and_an_eq_are_generated_once_on_first_use():
    got = _probe(
        "from basecat.report import Claim\n"
        "Claim('a', 'pass'); Claim('b', 'fail', 'why'); Claim(claim_id='c', status='skip')\n"
        "assert Claim('a', 'pass') == Claim('a', 'pass') != Claim('a', 'fail')\n"
    )
    compiled = ["SourceSpan.__init__", "Claim.__init__", "Claim.__eq__"]
    assert got == {"made": [], "compiled": compiled, "typing": False}
