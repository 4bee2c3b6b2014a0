"""Key exchange over the magma power structure, with a binary wire codec.

Both parties agree on a public base vector a; each picks a secret
exponent and publishes its power of a.  The shared key is the peer's
public value raised to the own secret, i.e. a^(m*n), which both sides
reach because (a^m)^n = (a^n)^m under the power identity.  As
a^n = (s_n − 1, t_n·a') (magma), a secret is a discrete log in R^*
(plane gives |R^*|).  For a unit base, a public value depends on the
secret only modulo ord(base), which divides p² − 1, p − 1 or p(p − 1)
as R is a field, split or dual; plane.power folds the secret by the
Frobenius of R, so at p = 2³¹ − 1 a 64-bit secret costs what a ~31-bit
one does.

An additive variant deriving a^(m+n) exists behind an explicit flag for
study only: a^(m+n) = a^m * a^n is computable from the two public
values alone, so it offers no secrecy.

Wire format (big endian): magic "MLKX", version 0x01, kind byte, then

  kind 0x01 parameter-announce: p (8), dim (1), coefficient count (1),
      coefficients (8 each), base components (8 each);
  kind 0x02 public-value: dim (1), components (8 each).

Messages are sent over any ordered reliable byte stream; no encryption
or authentication is attempted.  One parser, _decode, reads the format
from a take(n) source: a bounds-checked slice for decode_message, exact
socket reads for sessions, so both reject a malformed message alike.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from dataclasses import dataclass

from .field import PrimeModulus
from .magma import (COEFFICIENT_COUNTS, Params, Vector, _require_shared,
                    identity, mul)
from .power import pow_fast

MAGIC = b"MLKX"
VERSION = 1
KIND_PARAMS = 0x01
KIND_PUBLIC = 0x02

MODE_MULTIPLICATIVE = "multiplicative"
MODE_ADDITIVE = "additive"   # insecure, for study
MODES = (MODE_MULTIPLICATIVE, MODE_ADDITIVE)


class KxError(Exception):
    """Base error for the key-exchange subsystem."""


class KxDecodeError(KxError):
    """Base class for wire decoding failures."""


class BadMagicError(KxDecodeError):
    pass


class BadVersionError(KxDecodeError):
    pass


class TruncatedMessageError(KxDecodeError):
    pass


class NonCanonicalValueError(KxDecodeError):
    pass


class KxSessionError(KxError):
    """Session aborted: timeout, malformed peer message, or mismatch."""


@dataclass(frozen=True)
class KxPublicParams:
    params: Params
    base: Vector

    def __post_init__(self):
        _require_shared(self.base, self.base, self.params)
        if self.base == identity(self.base.dim, self.base.modulus):
            raise ValueError("base must differ from the identity vector")

    @property
    def modulus(self) -> PrimeModulus:
        return self.params.modulus

    @property
    def dim(self) -> int:
        return self.base.dim


@dataclass(frozen=True)
class KxKeypair:
    secret: int
    public: Vector


def _check_bits(exponent_bits: int) -> None:
    """Refuse, before any draw, a secret size that pow_fast's 64-bit
    exponents cannot take."""
    if not 2 <= exponent_bits <= 64:
        raise ValueError(f"exponent_bits must be in [2, 64], got {exponent_bits}")


def keygen(pub: KxPublicParams, exponent_bits: int = 64,
           rng: random.Random | None = None) -> KxKeypair:
    """Secret m uniform in [2^(bits-1), 2^bits); public a^m.

    The rare draw whose public value is the identity is resampled: an
    identity public carries no key material and peers reject it.
    """
    _check_bits(exponent_bits)
    rng = rng if rng is not None else random.SystemRandom()
    e = identity(pub.dim, pub.modulus)
    for _ in range(256):
        m = rng.randrange(1 << (exponent_bits - 1), 1 << exponent_bits)
        public = pow_fast(pub.base, m, pub.params)
        if public != e:
            return KxKeypair(m, public)
    raise KxError("could not draw a secret with a non-identity public value")


def derive_shared(own: KxKeypair, peer_public, pub: KxPublicParams,
                  mode: str = MODE_MULTIPLICATIVE):
    """Shared key from the peer's public value.

    Multiplicative (default): (peer_public)^secret = a^(m*n).
    Additive (insecure): a^(m+n) = own_public * peer_public, included
    only to study the variant; no secret input is actually needed.
    """
    if peer_public.modulus != pub.modulus or peer_public.dim != pub.dim:
        raise KxSessionError("peer public value has mismatched field or dimension")
    if peer_public == identity(pub.dim, pub.modulus):
        raise KxSessionError("peer public value is the identity")
    if mode == MODE_MULTIPLICATIVE:
        return pow_fast(peer_public, own.secret, pub.params)
    if mode == MODE_ADDITIVE:
        return mul(own.public, peer_public, pub.params)
    raise ValueError(f"mode must be one of {MODES}")


# ---------------------------------------------------------------------------
# wire codec

@dataclass(frozen=True)
class ParamsAnnounce:
    p: int
    dim: int
    coefficients: tuple[int, ...]
    base: tuple[int, ...]


@dataclass(frozen=True)
class PublicValue:
    dim: int
    components: tuple[int, ...]


def announce_for(pub: KxPublicParams) -> ParamsAnnounce:
    return ParamsAnnounce(pub.modulus.p, pub.dim, pub.params.coefficients,
                          pub.base.components)


def public_message(value: Vector) -> PublicValue:
    return PublicValue(value.dim, value.components)


def encode_message(msg: ParamsAnnounce | PublicValue) -> bytes:
    if isinstance(msg, ParamsAnnounce):
        values = (*msg.coefficients, *msg.base)
        return MAGIC + struct.pack(f">BBQBB{len(values)}Q", VERSION, KIND_PARAMS,
                                   msg.p, msg.dim, len(msg.coefficients), *values)
    if isinstance(msg, PublicValue):
        return MAGIC + struct.pack(f">BBB{len(msg.components)}Q", VERSION,
                                   KIND_PUBLIC, msg.dim, *msg.components)
    raise TypeError(f"unknown message {type(msg).__name__}")


def _check_canonical(values, p: int) -> None:
    for v in values:
        if v >= p:
            raise NonCanonicalValueError(f"residue {v} not below modulus {p}")


def _decode(take, expected_p: int | None) -> ParamsAnnounce | PublicValue:
    """Parse one message from take(n), which returns the next n bytes or
    raises.  Every length is checked before the bytes it sizes are read."""
    if take(4) != MAGIC:
        raise BadMagicError("bad magic")
    version = take(1)[0]
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    kind = take(1)[0]
    if kind == KIND_PARAMS:
        p, dim, count = struct.unpack(">QBB", take(10))
        if COEFFICIENT_COUNTS.get(dim) != count:
            raise KxDecodeError(f"inconsistent dim {dim} / coefficient count {count}")
        values = struct.unpack(f">{count + dim}Q", take(8 * (count + dim)))
        _check_canonical(values, p)
        if expected_p is not None and p != expected_p:
            raise KxDecodeError(f"announced modulus {p} != expected {expected_p}")
        return ParamsAnnounce(p, dim, values[:count], values[count:])
    if kind == KIND_PUBLIC:
        dim = take(1)[0]
        if dim not in COEFFICIENT_COUNTS:
            raise KxDecodeError(f"unsupported dimension {dim}")
        components = struct.unpack(f">{dim}Q", take(8 * dim))
        if expected_p is not None:
            _check_canonical(components, expected_p)
        return PublicValue(dim, components)
    raise KxDecodeError(f"unknown message kind {kind}")


def decode_message(data: bytes, expected_p: int | None = None
                   ) -> ParamsAnnounce | PublicValue:
    """Decode one message; canonicality of public values needs expected_p."""
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise TruncatedMessageError(
                f"message truncated: wanted {n} bytes at offset {off}, "
                f"have {len(data) - off}")
        off += n
        return data[off - n:off]

    msg = _decode(take, expected_p)
    if off != len(data):
        raise KxDecodeError(f"{len(data) - off} trailing bytes after message")
    return msg


# ---------------------------------------------------------------------------
# local simulation

@dataclass
class LocalExchange:
    pub: KxPublicParams
    alice: KxKeypair
    bob: KxKeypair
    shared_alice: Vector
    shared_bob: Vector
    mode: str

    @property
    def match(self) -> bool:
        return self.shared_alice == self.shared_bob

    def transcript(self) -> dict:
        return {
            "p": self.pub.modulus.p,
            "dim": self.pub.dim,
            "params": list(self.pub.params.coefficients),
            "base": list(self.pub.base.components),
            "mode": self.mode,
            "alice_public": list(self.alice.public.components),
            "bob_public": list(self.bob.public.components),
            "shared_alice": list(self.shared_alice.components),
            "shared_bob": list(self.shared_bob.components),
            "match": self.match,
        }


def run_local_exchange(pub: KxPublicParams, exponent_bits: int = 64,
                       rng: random.Random | None = None,
                       mode: str = MODE_MULTIPLICATIVE) -> LocalExchange:
    """Simulate both roles in process and compare the derived keys."""
    rng = rng if rng is not None else random.SystemRandom()
    alice = keygen(pub, exponent_bits, rng)
    bob = keygen(pub, exponent_bits, rng)
    return LocalExchange(
        pub, alice, bob,
        derive_shared(alice, bob.public, pub, mode),
        derive_shared(bob, alice.public, pub, mode),
        mode,
    )


# ---------------------------------------------------------------------------
# network sessions

ROLE_INITIATOR = "initiator"
ROLE_RESPONDER = "responder"


def _recv_exact(sock, n: int, deadline: float | None) -> bytes:
    """n bytes from sock, each recv bounded by the time left before
    deadline (a time.monotonic() value; None waits as the socket does)."""
    buf = bytearray()
    while len(buf) < n:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise KxSessionError("timed out waiting for peer data")
            sock.settimeout(left)
        try:
            chunk = sock.recv(n - len(buf))
        except TimeoutError as exc:
            raise KxSessionError("timed out waiting for peer data") from exc
        if not chunk:
            raise KxSessionError("connection closed mid-message")
        buf.extend(chunk)
    return bytes(buf)


def _recv_message(sock, expected_p: int,
                  deadline: float | None) -> ParamsAnnounce | PublicValue:
    try:
        return _decode(lambda n: _recv_exact(sock, n, deadline), expected_p)
    except KxDecodeError as exc:
        raise KxSessionError(f"aborted: {exc}") from exc


@dataclass
class SessionResult:
    role: str
    keypair: KxKeypair
    peer_public: Vector
    shared: Vector

    def to_dict(self) -> dict:
        return {
            "role": self.role,
            "public": list(self.keypair.public.components),
            "peer_public": list(self.peer_public.components),
            "shared": list(self.shared.components),
        }


def run_session(role: str, sock, pub: KxPublicParams, exponent_bits: int = 64,
                rng: random.Random | None = None, timeout: float = 10.0,
                mode: str = MODE_MULTIPLICATIVE) -> SessionResult:
    """Run one exchange over an ordered reliable byte stream.

    The initiator announces parameters and its public value; the
    responder checks the announcement against its own configuration,
    answers with its public value, and both sides derive the key.
    Every failure, socket errors included, raises KxSessionError.
    timeout bounds the whole session: the peer's data must arrive within
    timeout seconds of the start, however it is split.
    """
    if role not in (ROLE_INITIATOR, ROLE_RESPONDER):
        raise ValueError(f"role must be {ROLE_INITIATOR!r} or {ROLE_RESPONDER!r}")
    deadline = None
    if timeout is not None:
        deadline = time.monotonic() + timeout
        sock.settimeout(timeout)
    own = keygen(pub, exponent_bits, rng)
    p = pub.modulus.p
    try:
        if role == ROLE_INITIATOR:
            sock.sendall(encode_message(announce_for(pub)))
            sock.sendall(encode_message(public_message(own.public)))
            reply = _recv_message(sock, p, deadline)
            if not isinstance(reply, PublicValue):
                raise KxSessionError("aborted: expected a public value reply")
        else:
            announce = _recv_message(sock, p, deadline)
            if not isinstance(announce, ParamsAnnounce):
                raise KxSessionError("aborted: expected a parameter announce")
            if announce != announce_for(pub):
                raise KxSessionError("aborted: parameter mismatch with peer")
            reply = _recv_message(sock, p, deadline)
            if not isinstance(reply, PublicValue):
                raise KxSessionError("aborted: expected the initiator public value")
            sock.sendall(encode_message(public_message(own.public)))
    except OSError as exc:  # a reset or closed peer
        raise KxSessionError(f"aborted: {exc}") from exc
    peer = Vector(reply.components, pub.modulus)
    shared = derive_shared(own, peer, pub, mode)
    return SessionResult(role, own, peer, shared)


def _address(host: str, port: int) -> tuple[str, int]:
    """(host, port), refusing a port that a TCP socket cannot name."""
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in [0, 65535], got {port}")
    return host, port


def make_listener(host: str, port: int) -> socket.socket:
    """Bind a listening socket; port 0 picks a free one."""
    return socket.create_server(_address(host, port))


def serve(listener: socket.socket, pub: KxPublicParams, exponent_bits: int = 64,
          *, once: bool = False, timeout: float = 10.0,
          mode: str = MODE_MULTIPLICATIVE, on_result=None) -> None:
    """Accept connections and answer one exchange per connection.

    Sessions are independent; each runs in its own thread.  on_result
    receives a SessionResult per completed exchange, or the
    KxSessionError when one aborts.
    """
    def handle(conn):
        with conn:
            try:
                result = run_session(ROLE_RESPONDER, conn, pub, exponent_bits,
                                     timeout=timeout, mode=mode)
                if on_result is not None:
                    on_result(result)
            except KxSessionError as exc:
                if on_result is not None:
                    on_result(exc)

    with listener:
        _check_bits(exponent_bits)
        while True:
            conn, _ = listener.accept()
            if once:
                handle(conn)
                return
            threading.Thread(target=handle, args=(conn,), daemon=True).start()


def connect(host: str, port: int, pub: KxPublicParams, exponent_bits: int = 64,
            *, timeout: float = 10.0,
            mode: str = MODE_MULTIPLICATIVE) -> SessionResult:
    """Dial a responder and run one exchange as the initiator."""
    with socket.create_connection(_address(host, port), timeout=timeout) as sock:
        return run_session(ROLE_INITIATOR, sock, pub, exponent_bits,
                           timeout=timeout, mode=mode)
