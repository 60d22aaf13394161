"""CheckCombLoops: detect combinational cycles (Table II C2).

Builds a dependency graph over ground signals after lowering: for every
combinational sink (wire, node, output port) each signal referenced by a
driving expression — including the predicates of enclosing ``when`` blocks —
is a dependency.  Registers break cycles (their outputs change only on clock
edges).  Any strongly-connected component with more than one node, or a
self-loop, is reported with a sample path formatted like firtool's output.

The graph is an insertion-ordered adjacency dict: nodes in order of first
appearance (the sources of one sink in sorted order), successors in
statement order.  Components are reported in the order Tarjan's algorithm
closes them, so the diagnostics do not depend on string hashing.
"""

from __future__ import annotations

from repro.diagnostics import DiagnosticList
from repro.firrtl import ir
from repro.firrtl.passes.base import Pass


class CheckCombLoops(Pass):
    name = "CheckCombLoops"

    def run(self, circuit: ir.Circuit, diagnostics: DiagnosticList) -> ir.Circuit:
        for module in circuit.modules:
            self._check_module(module, diagnostics)
        return circuit

    def _check_module(self, module: ir.Module, diagnostics: DiagnosticList) -> None:
        # One traversal gathers register definitions and candidate edges; the
        # register filter (unknowable mid-walk, definitions may follow uses)
        # is applied when the graph is assembled afterwards.
        registers: set[str] = set()
        entries: list[tuple[bool, str, set[str]]] = []
        self._collect(module.body, [], registers, entries)
        graph: dict[str, dict[str, None]] = {}
        for is_connect, sink, sources in entries:
            if is_connect and sink in registers:
                continue
            for source in sorted(sources):
                if source in ("clock", "reset"):
                    continue
                graph.setdefault(source, {})[sink] = None
                graph.setdefault(sink, {})

        for component in _strongly_connected_components(graph):
            if len(component) == 1 and component[0] not in graph[component[0]]:
                continue
            sample = _sample_path(graph, set(component))
            diagnostics.error(
                f"Detected combinational cycle in a FIRRTL module {module.name}. "
                f"Sample path: {{{sample}}}. Break the loop by inserting a register "
                "or restructuring the logic",
                code="C2",
            )

    def _collect(
        self,
        block: ir.Block,
        predicates: list[ir.Expr],
        registers: set[str],
        entries: list[tuple[bool, str, set[str]]],
    ) -> None:
        for stmt in block.stmts:
            if isinstance(stmt, ir.DefRegister):
                registers.add(stmt.name)
            elif isinstance(stmt, ir.DefMemory):
                # Memory writes are synchronous, so memories break cycles just
                # like registers do.
                registers.add(stmt.name)
            elif isinstance(stmt, ir.Connect):
                root = ir.root_reference(stmt.target)
                if root is None:
                    continue
                sources = ir.expr_references(stmt.value)
                for predicate in predicates:
                    sources |= ir.expr_references(predicate)
                entries.append((True, root.name, sources))
            elif isinstance(stmt, ir.DefNode):
                entries.append((False, stmt.name, ir.expr_references(stmt.value)))
            elif isinstance(stmt, ir.Conditionally):
                self._collect(stmt.conseq, predicates + [stmt.predicate], registers, entries)
                self._collect(stmt.alt, predicates + [stmt.predicate], registers, entries)
            elif isinstance(stmt, ir.Block):
                self._collect(stmt, predicates, registers, entries)


def _strongly_connected_components(graph: dict[str, dict[str, None]]) -> list[list[str]]:
    """Tarjan's algorithm without recursion: components in closing order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[list[str]] = []
    for root in graph:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = len(index)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(graph[successor])))
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def _sample_path(graph: dict[str, dict[str, None]], members: set[str]) -> str:
    """The first cycle a depth-first walk from the least member closes."""
    start = min(members)
    if start in graph[start]:
        return f"{start} <- {start}"
    path = [start]
    visited = {start}
    work = [iter(graph[start])]
    while work:
        for successor in work[-1]:
            if successor not in members:
                continue
            if successor in path:
                cycle = path[path.index(successor) :] + [successor]
                return " <- ".join(reversed(cycle))
            if successor not in visited:
                visited.add(successor)
                path.append(successor)
                work.append(iter(graph[successor]))
                break
        else:
            work.pop()
            path.pop()
    return start  # pragma: no cover - a component always holds a cycle
