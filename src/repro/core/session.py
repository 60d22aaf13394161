"""Step-wise session protocol for the agentic workflows.

Every workflow (ReChisel, zero-shot, AutoChip) is written as a Python
generator that *yields* at its blocking boundaries instead of calling the
blocking facilities directly:

* :class:`LLMCall` — the session needs a chat completion for ``messages``;
* :class:`ToolCall` — the session needs the result of a pure, CPU-bound
  toolchain step (compile, parse, simulate) wrapped in a zero-argument
  callable.

The driver answers each step by sending the result back into the generator
(``generator.send(value)``); the generator's return value is the workflow
result.  This inversion is what lets one event loop interleave hundreds of
sessions: the async service answers :class:`LLMCall` steps through the
batching dispatcher and queues :class:`ToolCall` steps to run on the loop
thread, one per loop pass, while the classic blocking entry points
(``ReChisel.run`` and friends) answer them inline via :func:`drive` — same
generator, same step sequence, bit-identical results.

Sessions are resumable by construction: a generator suspended at a step
carries its full loop state (trace, current code, iteration counter), so the
driver may hold it suspended for as long as scheduling requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Union

from repro.llm.client import ChatClient, ChatMessage


@dataclass(frozen=True)
class LLMCall:
    """The session is suspended on a chat completion for ``messages``.

    ``purpose`` labels the agent role behind the call ("generate", "revise",
    "review", "loop_check") for tracing spans; it never affects execution.
    """

    messages: list[ChatMessage]
    purpose: str = "generate"


@dataclass(frozen=True)
class ToolCall:
    """The session is suspended on a pure toolchain computation.

    ``fn`` must be a zero-argument callable free of side effects beyond
    cache warming, so it can run inline, in a thread, or be retried without
    changing the session's result.  ``purpose`` labels the tool ("compile",
    "simulate", "parse", "reference") for tracing spans.

    ``batch`` optionally carries a declarative, batchable form of the same
    computation (e.g. a :class:`repro.toolchain.simulator.SimulateRequest`).
    Drivers that coalesce work from many sessions execute batches together;
    everyone else ignores it and calls ``run()``.  When ``batch`` is set, its
    ``run()`` must produce the same result as ``fn()``.
    """

    fn: Callable[[], object]
    purpose: str = "compile"
    batch: object | None = None

    def run(self) -> object:
        return self.fn()


SessionStep = Union[LLMCall, ToolCall]

#: A workflow session: yields steps, receives their results, returns the
#: workflow's result object via ``StopIteration.value``.
Session = Generator[SessionStep, object, object]


def drive(session: Session, client: ChatClient) -> object:
    """Run a session to completion synchronously.

    Answers :class:`LLMCall` steps with ``client.complete`` and
    :class:`ToolCall` steps by invoking them inline.  This is the classic
    blocking execution mode; the async service implements the same protocol
    with awaits in place of direct calls.
    """
    try:
        step = next(session)
        while True:
            if isinstance(step, LLMCall):
                value = client.complete(step.messages)
            else:
                value = step.run()
            step = session.send(value)
    except StopIteration as stop:
        return stop.value
