"""Shared-key encrypted transport.

Section 3.3 places security either "into the matching protocol (e.g.,
through password verification)" — which :mod:`repro.qos.spec` implements —
"or the transport protocols (e.g., through encryption)" — which this layer
implements: a :class:`SecureTransport` wrapper that encrypts and
authenticates every payload with a pre-shared key. Peers without the key
cannot read traffic, and tampered or foreign frames are dropped (and
counted) instead of delivered.

Construction (standard library only, since the reproduction vendors no
crypto dependency): SHA-256 in counter mode as the keystream, HMAC-SHA-256
(truncated to 16 bytes) over nonce + ciphertext for integrity. This is the
classic encrypt-then-MAC composition and is sound for the simulation's
threat model, but a production deployment should swap in a vetted AEAD —
the wire format leaves room for that swap.

Frame: ``nonce(12 bytes) + ciphertext + tag(16 bytes)``.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import Optional

from repro.errors import ConfigurationError
from repro.transport.base import Address, Transport

NONCE_BYTES = 12
TAG_BYTES = 16

#: Accounted per-message overhead of this layer.
SECURE_OVERHEAD_BYTES = NONCE_BYTES + TAG_BYTES

_BLOCK = struct.Struct(">Q")


def _derive(key: bytes, label: bytes) -> bytes:
    """Independent subkeys for encryption and authentication."""
    return hashlib.sha256(label + key).digest()


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = []
    for counter in range((length + 31) // 32):
        blocks.append(hashlib.sha256(key + nonce + _BLOCK.pack(counter)).digest())
    return b"".join(blocks)[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, stream))


class SecureChannel:
    """The pure crypto core (seal/open), reusable outside transports."""

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise ConfigurationError(
                f"shared key must be at least 16 bytes, got {len(key)}"
            )
        self._enc_key = _derive(key, b"enc:")
        self._mac_key = _derive(key, b"mac:")
        self._nonce_counter = 0

    def _next_nonce(self, party: str) -> bytes:
        self._nonce_counter += 1
        party_hash = hashlib.sha256(party.encode("utf-8")).digest()[:4]
        return party_hash + self._nonce_counter.to_bytes(8, "big")

    def seal(self, party: str, plaintext: bytes) -> bytes:
        # Crypto needs real bytes: a lazy wire frame is materialized here,
        # never passed through by reference.
        plaintext = bytes(plaintext)
        nonce = self._next_nonce(party)
        ciphertext = _xor(plaintext, _keystream(self._enc_key, nonce, len(plaintext)))
        tag = hmac.new(self._mac_key, nonce + ciphertext, hashlib.sha256).digest()
        return nonce + ciphertext + tag[:TAG_BYTES]

    def open(self, frame: bytes) -> Optional[bytes]:
        """Returns the plaintext, or None if the frame fails authentication."""
        if len(frame) < NONCE_BYTES + TAG_BYTES:
            return None
        nonce = frame[:NONCE_BYTES]
        ciphertext = frame[NONCE_BYTES:-TAG_BYTES]
        tag = frame[-TAG_BYTES:]
        expected = hmac.new(
            self._mac_key, nonce + ciphertext, hashlib.sha256
        ).digest()[:TAG_BYTES]
        if not hmac.compare_digest(tag, expected):
            return None
        return _xor(ciphertext, _keystream(self._enc_key, nonce, len(ciphertext)))


class SecureTransport(Transport):
    """Wraps any transport with shared-key encryption + authentication.

    Both endpoints must be constructed with the same key. Frames that fail
    authentication (wrong key, tampering, non-encrypted traffic) are
    counted in :attr:`auth_failures` and never reach the receiver.
    """

    def __init__(self, inner: Transport, key: bytes):
        super().__init__(inner.local_address, inner.scheduler)
        self.inner = inner
        self._channel = SecureChannel(key)
        self.auth_failures = 0
        inner.set_receiver(self._on_frame)

    def _send(self, destination: Address, payload: bytes) -> None:
        self.inner.send(
            destination, self._channel.seal(str(self.local_address), payload)
        )

    def _on_frame(self, source: Address, frame: bytes) -> None:
        # Sealed traffic is always real bytes; a lazy frame comes from a
        # peer without the key and fails without being materialized.
        plaintext = self._channel.open(frame) if isinstance(frame, bytes) else None
        if plaintext is None:
            self.auth_failures += 1
            return
        self._dispatch(source, plaintext)

    def close(self) -> None:
        super().close()
        self.inner.close()
