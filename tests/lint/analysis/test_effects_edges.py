"""Edge cases of the effect fixpoint the whole-program rules lean on.

REP002's host-clock reachability and REP204's stream attribution resolve
call targets through constructs the original extractor skipped:
``functools.partial`` wrappers, per-instance
bound entry points (the ``Dispatcher.send_gossip`` pattern — ``__init__``
rebinds ``self.send_gossip`` to ``self._send_gossip_tracked`` or
``_plain`` at setup time), and ``@property`` getters whose *read* runs
code.  Each test seeds a miniature module, builds a project over it, and
asserts the effect (or the call edge) crosses the construct.
"""

from __future__ import annotations

import textwrap

from repro.lint.analysis.effects import (
    WALL_CLOCK,
    infer_effects,
    resolve_call_target,
)
from repro.lint.analysis.model import build_project


def project_from(tmp_path, name, source):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(source))
    return build_project([(path, f"{name}.py")])


def effects_of(project):
    return infer_effects(project)


def test_partial_target_propagates_effects(tmp_path):
    project = project_from(
        tmp_path,
        "partials",
        """
        import functools
        import time

        def settle():
            time.sleep(0.1)

        def kick(calendar):
            calendar.append(functools.partial(settle))
        """,
    )
    effects = effects_of(project)
    record = effects.functions["partials.kick"]
    assert WALL_CLOCK in record.effects
    assert ("partials.settle", False) in record.callees


def test_partial_over_bound_method_resolves(tmp_path):
    project = project_from(
        tmp_path,
        "bound_partial",
        """
        import functools

        class Timer:
            def _fire(self):
                import time
                return time.time()

            def arm(self):
                return functools.partial(self._fire)
        """,
    )
    effects = effects_of(project)
    record = effects.functions["bound_partial.Timer.arm"]
    assert WALL_CLOCK in record.effects
    cls = project.classes["bound_partial.Timer"]
    arm = cls.methods["arm"]
    import ast

    call = next(
        node
        for node in ast.walk(arm.node)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "partial"
    )
    resolved = resolve_call_target(project, arm.module, cls, call)
    assert resolved is cls.methods["_fire"]


def test_instance_bound_entry_point_inherits_effects(tmp_path):
    # The Dispatcher.send_gossip pattern: __init__ picks the tracked or
    # plain implementation once, everything else calls the bound name.
    project = project_from(
        tmp_path,
        "bound_entry",
        """
        import time

        class Gossiper:
            def __init__(self, tracked):
                if tracked:
                    self.send_gossip = self._send_gossip_tracked
                else:
                    self.send_gossip = self._send_gossip_plain

            def _send_gossip_tracked(self):
                time.sleep(0.001)

            def _send_gossip_plain(self):
                pass

            def round(self):
                self.send_gossip()
        """,
    )
    effects = effects_of(project)
    record = effects.functions["bound_entry.Gossiper.round"]
    # Both candidate implementations become call edges; the tracked
    # one's blocking effect reaches the caller.
    callees = {qualname for qualname, _ in record.callees}
    assert "bound_entry.Gossiper._send_gossip_tracked" in callees
    assert "bound_entry.Gossiper._send_gossip_plain" in callees
    assert WALL_CLOCK in record.effects


def test_property_read_runs_the_getter(tmp_path):
    project = project_from(
        tmp_path,
        "props",
        """
        import time

        class Probe:
            def __init__(self, start):
                self.start = start

            @property
            def elapsed(self):
                return time.monotonic() - self.start

            def sample(self):
                return self.elapsed + 1.0
        """,
    )
    effects = effects_of(project)
    getter = effects.functions["props.Probe.elapsed"]
    assert WALL_CLOCK in getter.effects
    record = effects.functions["props.Probe.sample"]
    assert WALL_CLOCK in record.effects, (
        "reading a @property must inherit the getter's effects"
    )


def test_decorated_method_keeps_its_effects(tmp_path):
    # Arbitrary decorators must not hide a method from the fixpoint.
    project = project_from(
        tmp_path,
        "decorated",
        """
        import functools
        import time

        def logged(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return fn(*args, **kwargs)
            return wrapper

        class Worker:
            @logged
            def nap(self):
                time.sleep(0.5)

            def shift(self):
                self.nap()
        """,
    )
    effects = effects_of(project)
    assert WALL_CLOCK in effects.functions["decorated.Worker.nap"].effects
    assert WALL_CLOCK in effects.functions["decorated.Worker.shift"].effects


def test_every_clock_read_is_inherited(tmp_path):
    # The call-chain check and the direct-read check share one table, so
    # a helper reading the date taints its caller like time.time() does.
    project = project_from(
        tmp_path,
        "dates",
        """
        import datetime
        import time

        def stamp():
            return datetime.date.today()

        def cpu():
            return time.process_time_ns()

        def label():
            return f"{stamp()}-{cpu()}"
        """,
    )
    effects = effects_of(project)
    assert WALL_CLOCK in effects.functions["dates.stamp"].direct
    assert WALL_CLOCK in effects.functions["dates.cpu"].direct
    label = effects.functions["dates.label"]
    assert WALL_CLOCK in label.effects - label.direct
