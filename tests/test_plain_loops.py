"""Per-event code builds no comprehension objects.

On Python 3.11 every evaluation of a list, set or dict comprehension or a
generator expression creates a function object and a frame (they are
inlined only from 3.12), so the functions below, which run once or more
per event, use plain loops (see `meshnc.engine`'s module docstring). This
test reads their source, so a comprehension put back in any of them fails
here rather than as a slower benchmark. The one exception is the lazy
candidate stream that `select_transmission` hands to `cope_select`, which
stops reading it early.
"""
import ast
import inspect
import textwrap

import pytest

import meshnc.channel as channel_mod
import meshnc.coding as coding_mod
import meshnc.core as core_mod
import meshnc.engine as engine_mod
import meshnc.node as node_mod

PER_EVENT = {
    "engine.mac_grant": engine_mod.mac_grant,
    "engine.Simulation.run": engine_mod.Simulation.run,
    "channel.sample_reception": channel_mod.sample_reception,
    "node.NodeState.admit_packet": node_mod.NodeState.admit_packet,
    "node.NodeState.after_transmit": node_mod.NodeState.after_transmit,
    "node.NodeState.on_ack": node_mod.NodeState.on_ack,
    "node.NodeState._on_coded": node_mod.NodeState._on_coded,
    "node.NodeState._harvest_components":
        node_mod.NodeState._harvest_components,
    "node.NodeState._data_frame": node_mod.NodeState._data_frame,
    "node.NodeState.select_transmission":
        node_mod.NodeState.select_transmission,
    "coding.NeighborKnowledge.holds_all":
        coding_mod.NeighborKnowledge.holds_all,
    "coding.cope_select": coding_mod.cope_select,
    "core.decodable": core_mod.decodable,
    "core.encode": core_mod.encode,
}
# Handlers folded into `Simulation.run`'s loop. Each keeps its case: the
# method must stay gone (the loop is the one path) and `run`, which now
# holds its body, is what is read.
FOLDED = ("_after_air", "_apply", "_on_ack_end", "_on_frame_end", "_on_grant")
for handler in FOLDED:
    PER_EVENT[f"engine.Simulation.{handler}"] = engine_mod.Simulation.run
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def comprehensions(fn):
    """The comprehension nodes in `fn`'s source, less the candidate stream
    passed as `cope_select`'s second argument, and that stream's count."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    streams = {id(call.args[1]) for call in ast.walk(tree)
               if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "cope_select"
               and isinstance(call.args[1], ast.GeneratorExp)}
    found = [node for node in ast.walk(tree)
             if isinstance(node, COMPREHENSIONS) and id(node) not in streams]
    return found, len(streams)


@pytest.mark.parametrize("name", sorted(PER_EVENT))
def test_per_event_code_has_no_comprehension(name):
    handler = name.rpartition(".")[2]
    if handler in FOLDED:
        assert not hasattr(engine_mod.Simulation, handler), (
            f"{name} is back beside the loop in run")
    found, _ = comprehensions(PER_EVENT[name])
    assert not found, (
        f"{name} builds {type(found[0]).__name__} at line "
        f"{found[0].lineno} of its source; write it as a plain loop")


def test_the_cope_candidate_stream_is_the_one_exception():
    assert comprehensions(node_mod.NodeState.select_transmission)[1] == 1
    for name, fn in PER_EVENT.items():
        if fn is not node_mod.NodeState.select_transmission:
            assert comprehensions(fn)[1] == 0, name
