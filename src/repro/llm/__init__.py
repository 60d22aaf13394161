"""LLM layer: chat-client protocol, model behaviour profiles and the synthetic backend.

The agents in :mod:`repro.core` only ever talk to a :class:`ChatClient`; in
the paper that client is a commercial LLM API.  This reproduction ships a
synthetic backend (:class:`~repro.llm.synthetic.SyntheticChiselLLM`) whose
behaviour profiles are calibrated against the paper's reported numbers, plus a
:class:`~repro.llm.client.CallableClient` adapter so a real API can be plugged
in by passing any ``messages -> text`` callable.

For concurrent serving, :mod:`repro.llm.dispatch` adds the async side: the
:class:`~repro.llm.dispatch.AsyncChatClient` protocol, adapters for blocking
clients, and the :class:`~repro.llm.dispatch.BatchingDispatcher` that
answers many sessions' requests under one budget, rate limit and retry
policy.
"""

from repro.llm.client import (
    CallableClient,
    ChatClient,
    ChatMessage,
    EchoClient,
    RecordingClient,
)
from repro.llm.dispatch import (
    AsyncChatClient,
    BatchingDispatcher,
    LatencyClient,
    SyncClientAdapter,
    TokenBucket,
)
from repro.llm.profiles import MODEL_PROFILES, ModelProfile, profile_named
from repro.llm.synthetic import SyntheticChiselLLM
from repro.retry import RetryPolicy

__all__ = [
    "ChatClient",
    "ChatMessage",
    "CallableClient",
    "EchoClient",
    "RecordingClient",
    "AsyncChatClient",
    "BatchingDispatcher",
    "LatencyClient",
    "RetryPolicy",
    "SyncClientAdapter",
    "TokenBucket",
    "ModelProfile",
    "MODEL_PROFILES",
    "profile_named",
    "SyntheticChiselLLM",
]
