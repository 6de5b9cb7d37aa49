"""Unit tests for the project model."""

from __future__ import annotations

import ast
import textwrap

from repro.lint.analysis.model import ClassInfo, build_project, dotted_parts


def _project(tmp_path, files):
    pairs = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        pairs.append((path, rel))
    return build_project(pairs)


class TestModuleNamesAndImports:
    def test_src_prefix_and_init_stripped(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "src/repro/pubsub/cache.py": "x = 1\n",
                "src/repro/pubsub/__init__.py": "y = 2\n",
            },
        )
        assert "repro.pubsub.cache" in project.modules
        assert "repro.pubsub" in project.modules

    def test_relative_import_resolution(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "src/pkg/sub/a.py": "def target():\n    return 1\n",
                "src/pkg/sub/b.py": "from .a import target\n",
                "src/pkg/c.py": "from .sub.a import target\n",
            },
        )
        b = project.modules["pkg.sub.b"]
        assert b.imports["target"] == "pkg.sub.a.target"
        c = project.modules["pkg.c"]
        assert c.imports["target"] == "pkg.sub.a.target"

    def test_alias_canonicalisation(self, tmp_path):
        project = _project(
            tmp_path,
            {"src/m.py": "import numpy as np\n\nr = np.random.default_rng(1)\n"},
        )
        module = project.modules["m"]
        call = next(
            node for node in ast.walk(module.tree) if isinstance(node, ast.Call)
        )
        assert module.resolve_call(call) == "numpy.random.default_rng"


class TestLookupAndReexports:
    def test_reexport_chase(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "src/pkg/impl.py": "class Widget:\n    pass\n",
                "src/pkg/__init__.py": "from .impl import Widget\n",
                "src/use.py": (
                    "from pkg import Widget\n\n\nclass Sub(Widget):\n    pass\n"
                ),
            },
        )
        hit = project.lookup("pkg.Widget")
        assert isinstance(hit, ClassInfo)
        assert hit.qualname == "pkg.impl.Widget"
        sub = project.classes["use.Sub"]
        assert [base.qualname for base in sub.bases] == ["pkg.impl.Widget"]

    def test_mro_method_and_ancestry(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "src/m.py": (
                    "class Base:\n"
                    "    def hook(self, a):\n"
                    "        return a\n"
                    "\n"
                    "\n"
                    "class Child(Base):\n"
                    "    pass\n"
                )
            },
        )
        child = project.classes["m.Child"]
        hook = child.mro_method("hook")
        assert hook is not None and hook.qualname == "m.Base.hook"
        assert "m.Base" in child.ancestry_names()


class TestRedefinitions:
    """Every ``def`` is in the model; a name resolves to its last one."""

    def test_every_def_kept_last_one_resolves(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "src/m.py": (
                    "def helper():\n"
                    "    return 1\n"
                    "\n"
                    "\n"
                    "def helper():\n"
                    "    return 2\n"
                    "\n"
                    "\n"
                    "class Forwarder:\n"
                    "    def forward(self):\n"
                    "        return 1\n"
                    "\n"
                    "    def forward(self):\n"
                    "        return 2\n"
                )
            },
        )
        module = project.modules["m"]
        assert [fn.node.lineno for fn in module.defs] == [1, 5]
        assert module.functions["helper"] is module.defs[-1]
        assert project.lookup("m.helper") is module.defs[-1]
        cls = project.classes["m.Forwarder"]
        assert [fn.node.lineno for fn in cls.defs] == [10, 13]
        assert cls.methods["forward"] is cls.defs[-1]
        assert cls.mro_method("forward") is cls.defs[-1]
        assert [fn.node.lineno for fn in module.all_defs()] == [1, 5, 10, 13]


class TestDottedParts:
    def test_shapes(self):
        expr = ast.parse("a.b.c", mode="eval").body
        assert dotted_parts(expr) == ["a", "b", "c"]
        call = ast.parse("f(x).y", mode="eval").body
        assert dotted_parts(call) is None
