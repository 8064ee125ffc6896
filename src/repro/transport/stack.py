"""Declarative transport-stack composition.

The "network independence" promise (Section 3.2) in one function: describe
what you need (reliability? encryption?) and get the same stack over
whichever fabric the deployment provides.
"""

from __future__ import annotations

from typing import Optional

from repro.transport.base import Transport
from repro.transport.reliable import ReliabilityParams, ReliableTransport


class StackSpec:
    """What the application needs from its transport.

    ``encryption_key`` (optional) inserts the shared-key secure layer at
    the bottom of the stack, so reliability acks are encrypted too.
    """

    __slots__ = ("reliable", "reliability_params", "encryption_key")

    def __init__(self, reliable: bool = True,
                 reliability_params: ReliabilityParams = ReliabilityParams(),
                 encryption_key: Optional[bytes] = None) -> None:
        self.reliable = reliable
        self.reliability_params = reliability_params
        self.encryption_key = encryption_key


def build_stack(base: Transport, spec: StackSpec = StackSpec()) -> Transport:
    """Compose encryption and reliability over a base transport; returns
    the top of the stack.

    Layer order is fixed — encryption at the bottom, so everything above it
    is protected, including acks. This is the one place in the library that
    stacks these layers.
    """
    top: Transport = base
    if spec.encryption_key is not None:
        # Loaded on first use: a process that builds no keyed stack (every
        # benchmark workload) never compiles the crypto layer.
        from repro.transport.secure import SecureTransport
        top = SecureTransport(top, spec.encryption_key)
    if spec.reliable:
        top = ReliableTransport(top, spec.reliability_params)
    return top
