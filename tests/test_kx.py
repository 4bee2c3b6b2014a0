import queue
import random
import socket
import threading
import time

import pytest

from mlmagma import Params3, Params4, Vector3, Vector4, identity, make_modulus, mul
from mlmagma.dip import DipInstance, dip_bruteforce
from mlmagma.kx import (MAGIC, MODE_ADDITIVE, MODES, VERSION, BadMagicError,
                        BadVersionError, KxDecodeError, KxError, KxKeypair,
                        KxPublicParams, KxSessionError, NonCanonicalValueError,
                        TruncatedMessageError, announce_for, connect,
                        decode_message, derive_shared, encode_message, keygen,
                        make_listener, public_message, run_local_exchange,
                        run_session, serve)
from mlmagma.power import pow_fast, pow_iter


def demo_pub(p=101, coefs=(1, 1, 1, 1, 1), base=(1, 0, 0)):
    m = make_modulus(p)
    return KxPublicParams(Params3(*coefs, m), Vector3(*base, m))


def test_public_params_validation():
    m = make_modulus(23)
    ps = Params3(1, 1, 1, 1, 1, m)
    with pytest.raises(ValueError):
        KxPublicParams(ps, identity(3, m))
    with pytest.raises(ValueError):
        KxPublicParams(ps, Vector3(1, 0, 0, make_modulus(61)))


@pytest.mark.parametrize("base", [
    (100, 0, 0),     # the zero scalar: 0² = 0
    (15, 1, 68),     # a nilpotent of a dual plane: its square is the zero
    (96, 9, 0),      # an idempotent of a split plane: a² = a
])
def test_public_params_reject_a_base_constant_from_the_square(base):
    """a² = a³ makes every public value and both shared keys a², so
    such a base hides nothing and is refused."""
    m = make_modulus(101)
    ps, a = Params3(1, 1, 1, 1, 1, m), Vector3(*base, m)
    square = mul(a, a, ps)
    assert mul(square, a, ps) == square
    with pytest.raises(ValueError, match="a² = a³"):
        KxPublicParams(ps, a)


def test_keygen_range_and_reproducibility():
    pub = demo_pub()
    for _ in range(20):
        kp = keygen(pub, 3, random.Random())
        assert 4 <= kp.secret < 8
    a = keygen(pub, 16, random.Random(5))
    b = keygen(pub, 16, random.Random(5))
    assert a == b
    assert a.public == pow_iter(pub.base, a.secret, pub.params)


def test_scalar_shared_key():
    pub = demo_pub()
    alice = KxKeypair(3, pow_iter(pub.base, 3, pub.params))
    bob = KxKeypair(4, pow_iter(pub.base, 4, pub.params))
    assert alice.public.components == (7, 0, 0)
    assert bob.public.components == (15, 0, 0)
    ka = derive_shared(alice, bob.public, pub)
    kb = derive_shared(bob, alice.public, pub)
    assert ka.components == (55, 0, 0)  # 2^12 - 1 mod 101
    assert ka == kb


def test_trivial_exponents():
    pub = demo_pub()
    alice = KxKeypair(1, pub.base)
    bob = KxKeypair(1, pub.base)
    assert derive_shared(alice, bob.public, pub) == pub.base


def test_shared_keys_match_random(rng):
    e3 = identity(3, make_modulus(101))
    checked = 0
    while checked < 100:
        p = 101
        m = make_modulus(p)
        coefs = [rng.randrange(p) for _ in range(5)]
        base = Vector3(*(rng.randrange(p) for _ in range(3)), m)
        if base == identity(3, m):
            base = Vector3(1, 1, 1, m)
        pub = KxPublicParams(Params3(*coefs, m), base)
        me, ne = rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16)
        alice = KxKeypair(me, pow_fast(base, me, pub.params))
        bob = KxKeypair(ne, pow_fast(base, ne, pub.params))
        if alice.public == e3 or bob.public == e3:
            continue  # identity publics are rejected by the protocol
        assert derive_shared(alice, bob.public, pub) == \
            derive_shared(bob, alice.public, pub)
        checked += 1


def test_additive_mode_is_peer_computable():
    pub = demo_pub()
    ex = run_local_exchange(pub, 8, random.Random(1), MODE_ADDITIVE)
    assert ex.match
    # an eavesdropper computes the same key from public values alone
    eaves = mul(ex.alice.public, ex.bob.public, pub.params)
    assert eaves == ex.shared_alice


def test_derive_rejects_mismatch():
    pub = demo_pub()
    alice = keygen(pub, 8, random.Random(2))
    with pytest.raises(KxSessionError):
        derive_shared(alice, Vector3(1, 0, 0, make_modulus(61)), pub)
    with pytest.raises(KxSessionError):
        derive_shared(alice, identity(3, pub.modulus), pub)
    with pytest.raises(KxSessionError):
        derive_shared(alice, Vector4(1, 0, 0, 0, pub.modulus), pub)


def test_local_exchange_and_dip_link():
    pub = demo_pub()
    ex = run_local_exchange(pub, 12, random.Random(3))
    assert ex.match
    for kp in (ex.alice, ex.bob):
        res = dip_bruteforce(DipInstance(pub.base, kp.public, pub.params,
                                         cap=2 * 101 * 101))
        assert res.exponent is not None
        assert pow_iter(pub.base, res.exponent, pub.params) == kp.public
    t = ex.transcript()
    assert t["match"] is True
    assert t["shared_alice"] == t["shared_bob"]


def test_exchange_smallest_bits():
    ex = run_local_exchange(demo_pub(), 2, random.Random(4))
    assert ex.match


def test_exponent_bits_outside_pow_fast_range_rejected_before_drawing():
    """pow_fast takes exponents below 2^64: keygen refuses other sizes
    before it draws, so no error can carry a secret, and serve refuses
    them before it accepts a connection."""
    pub = demo_pub()
    assert keygen(pub, 64, random.Random(7)).secret.bit_length() == 64
    for bits in (65, 1, 0):
        rng = random.Random(7)
        with pytest.raises(ValueError) as info:
            keygen(pub, bits, rng)
        assert str(info.value) == f"exponent_bits must be in [2, 64], got {bits}"
        assert rng.getstate() == random.Random(7).getstate()
    for bits in (64.0, True):
        with pytest.raises(ValueError) as info:
            keygen(pub, bits, random.Random(7))
        assert str(info.value) == f"exponent_bits must be in [2, 64], got {bits}"
    listener = make_listener("127.0.0.1", 0)
    listener.settimeout(2)          # accept() would time out, not hang
    with pytest.raises(ValueError, match="exponent_bits must be in"):
        serve(listener, pub, 65)
    assert listener.fileno() == -1  # closed


@pytest.mark.parametrize("kwargs, message", [
    (dict(exponent_bits=65), "exponent_bits must be in [2, 64], got 65"),
    (dict(mode="bogus"), f"mode must be one of {MODES}"),
    *((dict(timeout=t), "timeout must be a non-negative number of seconds, "
       f"got {t!r}") for t in (-1, -0.5, None, True, "5", float("nan"))),
], ids=("bits", "mode", "negative", "negative-float", "None", "bool", "str",
        "nan"))
def test_bad_session_arguments_rejected_before_any_io(kwargs, message,
                                                        monkeypatch):
    """run_session, serve and connect refuse a secret size outside
    [2, 64], a mode outside MODES and a timeout that is not a
    non-negative int or float before they draw a secret, send a byte,
    accept or dial."""
    pub = demo_pub()
    kwargs = {"exponent_bits": 8, **kwargs}
    for role in ("initiator", "responder"):
        a, b = socket.socketpair()
        with a, b:
            a.settimeout(2)             # a session would time out, not hang
            rng = random.Random(7)
            with pytest.raises(ValueError) as info:
                run_session(role, a, pub, rng=rng, **kwargs)
            assert str(info.value) == message
            assert rng.getstate() == random.Random(7).getstate()
            b.setblocking(False)
            with pytest.raises(BlockingIOError):
                b.recv(1)               # no byte reached the peer
    listener = make_listener("127.0.0.1", 0)
    listener.settimeout(2)          # accept() would time out, not hang
    with pytest.raises(ValueError) as info:
        serve(listener, pub, once=True, **kwargs)
    assert str(info.value) == message
    assert listener.fileno() == -1  # closed
    dials = []
    monkeypatch.setattr(socket, "create_connection",
                        lambda *a, **k: dials.append(a))
    with pytest.raises(ValueError) as info:
        connect("127.0.0.1", 1, pub, **kwargs)
    assert str(info.value) == message
    assert dials == []


# --- wire codec ------------------------------------------------------------

def test_public_message_fixed_layout():
    msg = public_message(Vector3(7, 0, 0, make_modulus(101)))
    data = encode_message(msg)
    expected = (MAGIC + bytes([VERSION, 0x02, 3])
                + (7).to_bytes(8, "big") + bytes(16))
    assert data == expected


def test_params_message_layout_and_roundtrip():
    pub = demo_pub(23, (9, 19, 1, 1, 2), (0, 1, 0))
    msg = announce_for(pub)
    data = encode_message(msg)
    assert data[:4] == MAGIC
    assert data[4] == VERSION and data[5] == 0x01
    assert int.from_bytes(data[6:14], "big") == 23
    assert data[14] == 3 and data[15] == 5
    assert decode_message(data, expected_p=23) == msg
    assert encode_message(decode_message(data)) == data


def test_roundtrip_dim4():
    m = make_modulus(13)
    pub = KxPublicParams(Params4(*range(1, 10), m), Vector4(1, 2, 3, 4, m))
    for msg in (announce_for(pub), public_message(pub.base)):
        assert decode_message(encode_message(msg), expected_p=13) == msg


def test_decode_errors_are_distinct():
    good = encode_message(public_message(Vector3(7, 0, 0, make_modulus(101))))
    with pytest.raises(BadMagicError):
        decode_message(b"XXXX" + good[4:])
    with pytest.raises(BadVersionError):
        decode_message(good[:4] + bytes([9]) + good[5:])
    with pytest.raises(TruncatedMessageError):
        decode_message(good[:-1])
    with pytest.raises(NonCanonicalValueError):
        decode_message(good, expected_p=7)
    with pytest.raises(KxDecodeError):
        decode_message(good[:5] + bytes([0x77]) + good[6:])  # unknown kind
    with pytest.raises(KxDecodeError):
        decode_message(good + b"\x00")  # trailing bytes


def test_decode_non_canonical_params():
    pub = demo_pub(23, (9, 19, 1, 1, 2), (0, 1, 0))
    data = bytearray(encode_message(announce_for(pub)))
    data[16:24] = (23).to_bytes(8, "big")  # first coefficient == p
    with pytest.raises(NonCanonicalValueError):
        decode_message(bytes(data))


# --- sessions ---------------------------------------------------------------

def run_pair(pub_i, pub_r, bits=8):
    s1, s2 = socket.socketpair()
    out = {}

    def responder():
        try:
            out["r"] = run_session("responder", s2, pub_r, bits,
                                   random.Random(11), timeout=5.0)
        except Exception as exc:
            out["r_err"] = exc
        finally:
            s2.close()  # as serve's `with conn:` does

    t = threading.Thread(target=responder)
    t.start()
    try:
        out["i"] = run_session("initiator", s1, pub_i, bits,
                               random.Random(12), timeout=5.0)
    except Exception as exc:
        out["i_err"] = exc
    t.join()
    s1.close()
    return out


def test_session_over_socketpair():
    pub = demo_pub()
    out = run_pair(pub, pub)
    assert out["i"].shared == out["r"].shared
    assert out["i"].peer_public == out["r"].keypair.public


def test_session_parameter_mismatch_aborts():
    out = run_pair(demo_pub(), demo_pub(base=(2, 0, 0)))
    assert isinstance(out.get("r_err"), KxSessionError)
    assert isinstance(out.get("i_err"), KxSessionError)


def test_session_peer_reset_is_session_error():
    """A peer that closes with our data unread resets the connection; the
    session reports that as KxSessionError, not as a socket OSError."""
    pub = demo_pub()
    s1, s2 = socket.socketpair()

    def peer():
        s2.recv(1)  # leaves the rest of the announce unread
        s2.close()

    t = threading.Thread(target=peer)
    t.start()
    try:
        with pytest.raises(KxSessionError):
            run_session("initiator", s1, pub, 8, random.Random(12), timeout=5.0)
    finally:
        t.join()
        s1.close()


def test_session_timeout_bounds_a_trickling_peer():
    """A peer that sends a valid announce one byte every 0.05 s never lets
    a single recv time out; the session deadline still ends it."""
    pub = demo_pub()
    raw = encode_message(announce_for(pub))
    s1, s2 = socket.socketpair()
    stop = threading.Event()

    def peer():
        for i in range(len(raw)):
            if stop.wait(0.05):
                return
            try:
                s1.sendall(raw[i:i + 1])
            except OSError:
                return

    t = threading.Thread(target=peer)
    t.start()
    try:
        t0 = time.monotonic()
        with pytest.raises(KxSessionError, match="timed out"):
            run_session("responder", s2, pub, 8, timeout=0.3)
        assert time.monotonic() - t0 < 1.0
    finally:
        stop.set()
        t.join(timeout=5)
        s1.close()
        s2.close()
    assert not t.is_alive()


def responder_error(raw, pub):
    """The KxSessionError a responder raises on reading raw, then EOF."""
    s1, s2 = socket.socketpair()
    err = {}

    def responder():
        try:
            run_session("responder", s2, pub, 8, timeout=5.0)
        except KxSessionError as exc:
            err["e"] = exc

    t = threading.Thread(target=responder)
    t.start()
    s1.sendall(raw)
    s1.close()
    t.join(timeout=10)
    s2.close()
    assert not t.is_alive()
    return err["e"]


def test_session_wrong_message_order_aborts():
    pub = demo_pub()
    # public value before the parameter announce
    raw = encode_message(public_message(Vector3(7, 0, 0, pub.modulus)))
    assert "parameter announce" in str(responder_error(raw, pub))


def test_session_two_announces_abort():
    """The responder wants the initiator's public value after the
    announce; a second announce in its place aborts the session."""
    raw = encode_message(announce_for(demo_pub()))
    err = responder_error(raw + raw, demo_pub())
    assert str(err) == "aborted: expected the initiator public value"


def test_session_deadline_already_passed():
    """timeout=0 leaves no time for the peer's first byte."""
    s1, s2 = socket.socketpair()
    try:
        with pytest.raises(KxSessionError) as info:
            run_session("responder", s2, demo_pub(), 8, timeout=0)
        assert str(info.value) == "timed out waiting for peer data"
    finally:
        s1.close()
        s2.close()


def test_session_initiator_refuses_an_announce_reply():
    """The initiator writes its announce, then its public value, and wants
    a public value back; an announce in its place aborts the session."""
    pub = demo_pub()
    s1, s2 = socket.socketpair()
    announce = encode_message(announce_for(pub))
    sent = []

    def peer():
        want = len(announce) + len(_PUBLIC)
        got = b""
        while len(got) < want:
            chunk = s2.recv(want - len(got))
            if not chunk:
                break
            got += chunk
        sent.append(got)
        s2.sendall(announce)

    t = threading.Thread(target=peer)
    t.start()
    try:
        with pytest.raises(KxSessionError) as info:
            run_session("initiator", s1, pub, 8, random.Random(12), timeout=5.0)
        assert str(info.value) == "aborted: expected a public value reply"
    finally:
        t.join(timeout=10)
        s1.close()
        s2.close()
    assert not t.is_alive()
    own = keygen(pub, 8, random.Random(12)).public
    assert sent == [announce + encode_message(public_message(own))]


def test_session_bad_magic_aborts():
    assert "bad magic" in str(responder_error(b"NOPE" + bytes(40), demo_pub()))


def test_session_bad_version_aborts():
    pub = demo_pub()
    msg = bytearray(encode_message(announce_for(pub)))
    msg[4] = 2
    assert "version" in str(responder_error(bytes(msg), pub))


def test_session_truncation_aborts():
    pub = demo_pub()
    err = responder_error(encode_message(announce_for(pub))[:20], pub)
    assert "closed" in str(err) or "timed out" in str(err)


def _patched(data, at, value):
    out = bytearray(data)
    out[at:at + len(value)] = value
    return bytes(out)


_ANNOUNCE = encode_message(announce_for(demo_pub()))
_PUBLIC = encode_message(public_message(Vector3(7, 0, 0, make_modulus(101))))


@pytest.mark.parametrize("raw", [
    _patched(_ANNOUNCE, 0, b"XXXX"),
    _patched(_ANNOUNCE, 4, bytes([9])),                   # version
    _patched(_ANNOUNCE, 5, bytes([0x77])),                # kind
    _patched(_PUBLIC, 6, bytes([5])) + bytes(16),         # public dim 5
    _patched(_PUBLIC, 7, (101).to_bytes(8, "big")),       # residue == p
    _patched(_ANNOUNCE, 15, bytes([9])),                  # dim 3, count 9
    _patched(_ANNOUNCE, 16, (101).to_bytes(8, "big")),    # coefficient == p
    encode_message(announce_for(demo_pub(103))),          # other modulus
], ids=["magic", "version", "kind", "public-dim", "public-residue",
        "announce-count", "announce-residue", "announce-modulus"])
def test_session_abort_matches_decode_error(raw):
    """Sockets and byte strings share one parser, so a session aborts
    with the very error decode_message raises on the same bytes."""
    with pytest.raises(KxDecodeError) as decoded:
        decode_message(raw, expected_p=101)
    err = responder_error(raw, demo_pub())
    assert str(err) == f"aborted: {decoded.value}"


def test_tcp_serve_and_connect():
    pub = demo_pub()
    listener = make_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    results = []
    server = threading.Thread(
        target=serve, args=(listener, pub, 8),
        kwargs=dict(once=True, on_result=results.append), daemon=True)
    server.start()
    res = connect("127.0.0.1", port, pub, 8)
    server.join(timeout=5)
    assert results and results[0].shared == res.shared


@pytest.mark.parametrize("port", (70000, 65536, -1))
def test_ports_outside_tcp_range_refused(port, monkeypatch):
    """A port outside [0, 65535] is refused by name, before a bind or a
    dial: it would otherwise raise OverflowError, or be taken mod 2^16."""
    dials = []
    monkeypatch.setattr(socket, "create_connection",
                        lambda *a, **k: dials.append(a))
    message = f"port must be in [0, 65535], got {port}"
    with pytest.raises(ValueError) as info:
        make_listener("127.0.0.1", port)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        connect("127.0.0.1", port, demo_pub(), 8)
    assert str(info.value) == message
    assert dials == []


def test_serve_runs_sessions_in_threads_and_reports_aborts():
    """Without once, each session runs in its own thread: the two
    responders meet at a barrier in on_result, which a serial loop would
    never reach.  A peer sending bad magic reaches on_result as a
    KxSessionError; shutting the listener down ends the loop."""
    pub = demo_pub()
    listener = make_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    results, both = queue.Queue(), threading.Barrier(2, timeout=5)

    def on_result(r):
        results.put(r)
        if not isinstance(r, Exception):
            both.wait()

    def run_server():
        try:
            serve(listener, pub, 8, on_result=on_result)
        except OSError:                  # accept on the shut-down listener
            pass

    server = threading.Thread(target=run_server, daemon=True)
    server.start()
    keys = []   # a list: two 8-bit secrets can share a public value

    def initiate():
        res = connect("127.0.0.1", port, pub, 8)
        keys.append((res.keypair.public.components, res.shared.components))

    initiators = [threading.Thread(target=initiate) for _ in range(2)]
    for t in initiators:
        t.start()
    for t in initiators:
        t.join(timeout=5)
    responders = [results.get(timeout=5) for _ in range(2)]
    assert sorted((r.peer_public.components, r.shared.components)
                  for r in responders) == sorted(keys)
    assert len(keys) == 2

    with socket.create_connection(("127.0.0.1", port)) as peer:
        peer.sendall(b"NOPE" + bytes(40))
        err = results.get(timeout=5)
    assert isinstance(err, KxSessionError) and "bad magic" in str(err)
    listener.shutdown(socket.SHUT_RDWR)
    server.join(timeout=5)
    assert not server.is_alive()


def test_derive_shared_refuses_an_unknown_mode():
    pub = demo_pub()
    own = keygen(pub, rng=random.Random(1))
    peer = keygen(pub, rng=random.Random(2))
    with pytest.raises(ValueError, match="mode must be one of"):
        derive_shared(own, peer.public, pub, mode="x")


def test_run_session_refuses_an_unknown_role():
    a, b = socket.socketpair()
    with a, b:
        with pytest.raises(ValueError,
                           match="role must be 'initiator' or 'responder'"):
            run_session("x", a, demo_pub())


def test_encode_message_refuses_an_unknown_message():
    with pytest.raises(TypeError, match="unknown message object"):
        encode_message(object())


def test_keygen_gives_up_after_256_identity_publics():
    """With 2-bit secrets drawn at their lower bound 2, a base of period
    2 makes every public value a² the identity."""
    class LowestDraw:
        def randrange(self, lo, hi):
            return lo

    pub = demo_pub(23, (9, 19, 1, 1, 2), (21, 0, 0))
    with pytest.raises(KxError, match="could not draw a secret with a "
                                      "non-identity public value"):
        keygen(pub, 2, LowestDraw())
