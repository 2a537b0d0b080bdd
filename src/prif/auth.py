"""Trust-authority setup, group certificates, and the mutual group handshake.

A trust authority owns a Schnorr group (prime p, prime order q dividing p-1,
generator alpha of order q).  Each community is a TA-created group with a
secret scalar and public key; members hold certificates (id, e, s, y) issued
as Schnorr signatures over a random commitment.  Two nodes in radio range
prove group membership to each other in two rounds without revealing what
the group id means:

* round 1: each sends (gid, id, Y, B) where Y reopens the certificate
  commitment and B is a fresh ephemeral;
* round 2: each sends a key-confirmation tag over the peer's ephemeral and
  the session id (the byte-exact concatenation of both round-1 messages,
  initiator first).

Verification recomputes the tag from public values only.  A peer that is
revoked, malformed, or outside the prime-order subgroup gets a uniformly
random tag back, indistinguishable from a garbage-key run.

Arithmetic.  Every 2048-bit exponent here is below 2^256, and the cost of
a handshake is its modular multiplications.  The helpers below return
exactly what plain ``pow`` returns, so no transcript, outcome or random
draw depends on them or on whether a memo is warm:

* a *power chain* of a base B holds B^(16^i) for i = 0..n-1, with n radix-16
  digits covering q (n = 64 at 2048 bits).  ``chain_pow`` raises B to any
  exponent in [0, 16^n) with one product per nonzero digit and 30 more
  (Yao, "On the evaluation of powers", SIAM J. Comput. 1976).  At 2048 bits
  a chain costs about 0.7 of a ``pow`` to build, 0.3 of one per use and
  19 KB; a radix-4 Lim-Lee table of the same base measured 1.4, 0.37 and
  115 KB.  Round 2 builds one chain of the peer's ephemeral B for both B^q
  and B^s.  In the toy group the chain is (B,), which ``chain_pow`` sends
  to ``powmod``: one builtin ``pow`` (0.1 us) is cheaper there than a pass
  over the digit buckets (2 us);
* validation order: no element is raised to a secret power before it is
  shown to lie in the order-q subgroup.  Round 2 checks revocation, then
  the peer's Y, then ``1 < B < p`` before building B's chain, and forms
  B^s only once B^q equals 1; a reject draws nothing but its random tag.
  ``verify_confirmation`` tests Y before anything meets b;
* ``alpha_pow`` reads every alpha^x from a radix-16 table of
  alpha^(j * 16^i) (Lim & Lee, CRYPTO '94), built per parameter set on
  first use; at a quarter of a ``pow`` per use, below a chain's 0.3, it
  is worth its 300 KB for this one base;
* a round-1 message encodes itself once, at construction; its commitment
  Y and wire prefix (tag, gid, id and Y frames) are memoised per credential;
* one bounded peer memo, ``_peer``, keyed by the parameters and the prefix
  a peer sends, reads id and Y back out of those bytes and holds Y's
  subgroup verdict, the default digest H1(id, Y) and the verifier base
  y^e * Y, whose chain it builds at the base's second use.  Round 2 and
  verification look it up once each; a caller-supplied ``h1`` bypasses it;
* ``SystemParams`` and ``Certificate`` hash their fields once.

In the toy group that every simulated contact uses, the exponentiations
are cheap and the handshake's cost is Python overhead, which is why public
values that recur between contacts are memoised even there.

All randomness flows through caller-supplied seeds or ``random.Random``
streams; nothing here reads the clock or os entropy, so handshakes replay
bit-identically under one seed.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable


def powmod(base: int, exp: int, mod: int) -> int:
    """Modular exponentiation; negative exponents invert modulo ``mod``."""
    return pow(base, exp, mod)

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
                 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167,
                 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229]

H1Fn = Callable[[str, int], int]


class ParameterGenError(RuntimeError):
    """Raised when group-parameter search exhausts its retry budget."""


# ---------------------------------------------------------------------------
# byte-level helpers (shared by hashing and the wire codec)
# ---------------------------------------------------------------------------

def int_to_bytes(n: int) -> bytes:
    """Minimal-length unsigned big-endian encoding (one byte for zero)."""
    if n < 0:
        raise ValueError("only non-negative integers are encoded")
    return n.to_bytes((n.bit_length() + 7) // 8 or 1, "big")


def _frame(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def _read_frame(buf: bytes, off: int) -> tuple[bytes, int]:
    if off + 4 > len(buf):
        raise ValueError("truncated frame length")
    n = int.from_bytes(buf[off:off + 4], "big")
    off += 4
    if off + n > len(buf):
        raise ValueError("truncated frame body")
    return buf[off:off + n], off + n


def _read_int_frame(buf: bytes, off: int) -> tuple[int, int]:
    """An integer frame in ``int_to_bytes``'s encoding, which is the only
    one accepted, so that each wire frame has exactly one meaning."""
    data, off = _read_frame(buf, off)
    if not data or (len(data) > 1 and data[0] == 0):
        raise ValueError("integer frame is empty or has a leading zero byte")
    return int.from_bytes(data, "big"), off


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class _HashedOnce:
    """Frozen-dataclass mixin: hash the fields once, at construction.

    Parameters and certificates key the memos below, several lookups per
    handshake; the generated ``__hash__`` would rebuild and hash the field
    tuple at each one.  A class must still assign ``__hash__`` in its own
    body, or ``dataclass`` replaces it.  Unpickling re-runs ``__init__``,
    so a copy sent to another process rehashes there (str hashes are salted
    per process).
    """

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self._field_values()))

    def _field_values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), self._field_values()


@dataclass(frozen=True)
class SystemParams(_HashedOnce):
    """Public group parameters: primes p, q (q | p-1) and alpha of order q."""

    p: int
    q: int
    alpha: int
    kappa: int = 256

    __hash__ = _HashedOnce.__hash__


@dataclass(frozen=True)
class GroupParams:
    """One community's key material; ``secret`` never leaves the TA."""

    gid: str
    y: int
    secret: int


@dataclass(frozen=True)
class Certificate(_HashedOnce):
    """Member credential (id, e, s, y): a Schnorr signature by the TA."""

    id: str
    e: int
    s: int
    y: int

    __hash__ = _HashedOnce.__hash__


class RevocationList:
    """Public append-only set of revoked member ids."""

    def __init__(self, revoked: Iterable[str] = ()) -> None:
        self._revoked: set[str] = set(revoked)

    def revoke(self, member_id: str) -> None:
        self._revoked.add(member_id)

    def is_revoked(self, member_id: str) -> bool:
        return member_id in self._revoked

    def __len__(self) -> int:
        return len(self._revoked)


@dataclass(frozen=True)
class HandshakeMsg1:
    gid: str
    id: str
    Y: int
    B: int
    # wire bytes, encoded once at construction: the prefix up to B keys the
    # peer memo, and the whole frame is both the codec's and the sid's input
    prefix: bytes = field(init=False, repr=False, compare=False)
    encoded: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", _msg1_prefix(self.gid, self.id, self.Y))
        object.__setattr__(self, "encoded", self.prefix + _frame(int_to_bytes(self.B)))


@dataclass(frozen=True)
class HandshakeMsg2:
    h: bytes
    sid: bytes


TOY_PARAMS = SystemParams(p=23, q=11, alpha=2)

# Fixed production-scale parameter set, generated once with
# ta_setup(2048, 256, seed=20260808) and validated by the test suite.
# Shipping constants avoids minutes of prime search at import time.
DEFAULT_PARAMS_2048 = SystemParams(
    p=int("87d5151ef5f73476f274825900e9e9be4725cf83042cb3b2cde024fac2957dc000cf625e457df54847b4bf9c71d787ee0d86040d050d72d03fac40ebf2579a437cd5d615264cd2fd703a70eba11ba046fc1b3e9cbca6faf917524c7a2bc6e9ea9c9498a136fcb906f9469177b5d0d3567858cf12abd1748cb1363c1c2e75e3f29c7b6a6614e249d8b09f24f279c0577de7fd93276b25fa85a8cc9484f91c2d991973c7fce4659889bad17921c6097444dbce65a139372fd43a28f97351352be9a95c1b0f8e2ef28e93b56838bab7e0da2321a048837beeb99f8d4f2a325ed39022725f4fab51376181a01285783970b58c81267de844f9082d25d31bf526feff", 16),
    q=int("8ba5d5b6f195dd7788921108e773b8b1d801425484a4b40ce35283d432518ccd", 16),
    alpha=int("6b0f0bf2058cd3135ad6dedf5910285d328d156f4a25085f4bb060a917ca9cc47ff555bf52b8b4815fe33713278d88e8efc60557979c982889a7bde0026fbfd389ef1ebbe681114a0a8ce5bab8a832145909b35e7f3302dfa3f7d139048dacc10b10e20b51070a2e505586cf90ca551d0ed11a81f88a23315a54fa0f9c005baaf42d9451b99ba6d1de789b4858079db78aa54cb6f43dc9e36c57ef7595ada612a707b0117b905d2d0bbca4eabdb92f56e92a07381d007db85877bd3d5f9d980cb09c5a156cecc1a3e790a198a36d2e43ad0482a9aaefb1156d4aa5f8d6a55106c91fbdfdb80a6b651abf0927e55db0f85623f4afb30a491d93a0797a76b9d3de", 16),
)


# ---------------------------------------------------------------------------
# randomness and primality
# ---------------------------------------------------------------------------

def as_rng(seed: int | random.Random) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def rand_zq_star(rng: random.Random, q: int) -> int:
    """Uniform scalar in Z*_q; zero draws are resampled."""
    while True:
        x = rng.randrange(0, q)
        if x != 0:
            return x


def is_probable_prime(n: int, rng: random.Random, rounds: int = 40) -> bool:
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gen_prime(bits: int, rng: random.Random) -> int:
    if bits < 2:
        raise ParameterGenError("prime size too small")
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand, rng):
            return cand


def validate_params(params: SystemParams, deep: bool = False,
                    rng: random.Random | None = None) -> None:
    """Check the structural parameter invariants; raise ValueError if broken.

    With ``deep=True`` the primality of p and q is also verified.
    """
    p, q, alpha = params.p, params.q, params.alpha
    if (p - 1) % q != 0:
        raise ValueError("q must divide p - 1")
    if not 1 < alpha < p:
        raise ValueError("alpha must lie in (1, p)")
    if powmod(alpha, q, p) != 1:
        raise ValueError("alpha must have order dividing q")
    if params.kappa % 8 != 0 or params.kappa <= 0:
        raise ValueError("kappa must be a positive multiple of 8")
    if deep:
        check_rng = rng or random.Random(0xC0FFEE)
        if not is_probable_prime(p, check_rng):
            raise ValueError("p is not prime")
        if not is_probable_prime(q, check_rng):
            raise ValueError("q is not prime")


# ---------------------------------------------------------------------------
# group arithmetic: subgroup test, power chains, fixed-base alpha table
# ---------------------------------------------------------------------------

def in_subgroup(x: int, params: SystemParams) -> bool:
    """True iff x is a non-identity element of the order-q subgroup."""
    return 1 < x < params.p and powmod(x, params.q, params.p) == 1


# Size of each per-credential memo (``_peer``, ``recover_commitment`` and
# ``_msg1_prefix``): about one entry per node that handshakes, at most 166
# in the paper scenario.  Larger populations stay exact, with fewer hits.
_PEER_MEMO_SIZE = 256

_RADIX_BITS = 4
_RADIX = 1 << _RADIX_BITS
_DIGIT_MASK = _RADIX - 1


def power_chain(base: int, params: SystemParams) -> tuple[int, ...]:
    """base^(16^i) mod p for i = 0..n-1, where 16^n > q, for ``chain_pow``;
    a q of at most 4 bits, as in the toy group, gives the chain (base,)."""
    p = params.p
    chain = [base]
    for _ in range(-(-params.q.bit_length() // _RADIX_BITS) - 1):
        chain.append(pow(chain[-1], _RADIX, p))
    return tuple(chain)


def chain_pow(chain: tuple[int, ...], x: int, p: int) -> int:
    """chain[0]^x mod p from a ``power_chain``, equal to ``pow`` for every x.

    Yao's method: bucket d multiplies the chain entries at the radix-16
    digits of x equal to d, then the buckets are combined from digit 15
    down, each partial product taken once per digit value it covers.
    Exponents outside [0, 16^n), and every exponent of a one-entry chain,
    go to ``powmod``."""
    if len(chain) == 1 or x >> (_RADIX_BITS * len(chain)):
        return powmod(chain[0], x, p)
    buckets = [1] * _RADIX
    for entry in chain:
        if not x:
            break
        digit = x & _DIGIT_MASK
        if digit:
            buckets[digit] = buckets[digit] * entry % p
        x >>= _RADIX_BITS
    acc = run = 1
    for bucket in buckets[:0:-1]:
        run = run * bucket % p
        acc = acc * run % p
    return acc


@functools.lru_cache(maxsize=4)
def _alpha_table(params: SystemParams) -> tuple[tuple[int, ...], ...]:
    """Row i holds alpha^(j * 16^i) mod p for j = 0..15, enough rows for q."""
    p = params.p
    rows = []
    base = params.alpha
    for _ in range(-(-params.q.bit_length() // _RADIX_BITS)):
        row = [1, base]
        for _ in range(_RADIX - 2):
            row.append(row[-1] * base % p)
        rows.append(tuple(row))
        base = row[-1] * base % p
    return tuple(rows)


def alpha_pow(x: int, params: SystemParams) -> int:
    """alpha^x mod p: one table product per radix-16 digit of x in [0, q);
    other exponents go to ``powmod``.  Equal to ``pow`` for every x."""
    if not 0 <= x < params.q:
        return powmod(params.alpha, x, params.p)
    p = params.p
    acc = 1
    for row in _alpha_table(params):
        if not x:
            break
        digit = x & _DIGIT_MASK
        if digit:
            acc = acc * row[digit] % p
        x >>= _RADIX_BITS
    return acc


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

def h1_digest(params: SystemParams, member_id: str, commitment: int) -> int:
    """Digest into Z*_q with domain tag PRIF-H1; zero is rejected by re-hash."""
    counter = 0
    base = b"PRIF-H1" + _frame(member_id.encode()) + _frame(int_to_bytes(commitment))
    while True:
        digest = hashlib.sha256(base + counter.to_bytes(4, "big")).digest()
        e = int.from_bytes(digest, "big") % params.q
        if e != 0:
            return e
        counter += 1


def h2_tag(params: SystemParams, shared_key: int, sid: bytes) -> bytes:
    """kappa-bit confirmation tag with domain tag PRIF-H2."""
    key = int_to_bytes(shared_key)
    data = b"".join((b"PRIF-H2", len(key).to_bytes(4, "big"), key,
                     len(sid).to_bytes(4, "big"), sid))
    return hashlib.sha256(data).digest()[: params.kappa // 8]


# ---------------------------------------------------------------------------
# TA lifecycle
# ---------------------------------------------------------------------------

def ta_setup(bits_p: int, bits_q: int, seed: int | random.Random,
             max_attempts: int = 65536) -> SystemParams:
    """Generate a Schnorr group: prime q | p - 1 and alpha of order q."""
    if bits_q >= bits_p:
        raise ValueError("bits_q must be smaller than bits_p")
    rng = as_rng(seed)
    q = _gen_prime(bits_q, rng)
    p = None
    for _ in range(max_attempts):
        # an even cofactor keeps q * r + 1 odd (q is odd)
        r = rng.getrandbits(bits_p - bits_q) & ~1
        cand = q * r + 1
        if cand.bit_length() != bits_p:
            continue
        if is_probable_prime(cand, rng):
            p = cand
            break
    if p is None:
        raise ParameterGenError("no suitable prime p found within retry budget")
    for _ in range(max_attempts):
        g = rng.randrange(2, p - 1)
        alpha = powmod(g, (p - 1) // q, p)
        if alpha != 1:
            params = SystemParams(p=p, q=q, alpha=alpha)
            validate_params(params)
            return params
    raise ParameterGenError("no generator of order q found within retry budget")


def ta_create_group(params: SystemParams, gid: str,
                    seed: int | random.Random) -> GroupParams:
    """Sample a group secret in Z*_q and publish y = alpha^secret mod p."""
    rng = as_rng(seed)
    secret = rand_zq_star(rng, params.q)
    y = alpha_pow(secret, params)
    return GroupParams(gid=gid, y=y, secret=secret)


def ta_register(group: GroupParams, params: SystemParams,
                seed: int | random.Random,
                used_ids: set[str] | None = None,
                h1: H1Fn | None = None) -> Certificate:
    """Issue a member certificate under the group secret.

    The member id is a fresh random string; a collision with ``used_ids``
    forces a retry.  ``h1`` may substitute the certificate digest (used by
    the small-prime worked examples in the tests).
    """
    rng = as_rng(seed)
    digest = h1 or (lambda mid, c: h1_digest(params, mid, c))
    while True:
        member_id = rng.getrandbits(128).to_bytes(16, "big").hex()
        if used_ids is not None and member_id in used_ids:
            continue
        break
    if used_ids is not None:
        used_ids.add(member_id)
    k = rand_zq_star(rng, params.q)
    commitment = alpha_pow(k, params)
    e = digest(member_id, commitment)
    if not 0 < e < params.q:
        raise ValueError("certificate digest must lie in Z*_q")
    s = (group.secret * e + k) % params.q
    return Certificate(id=member_id, e=e, s=s, y=group.y)


@functools.lru_cache(maxsize=_PEER_MEMO_SIZE)
def recover_commitment(cert: Certificate, params: SystemParams) -> int:
    """Reopen the certificate commitment: alpha^s * y^-e mod p."""
    return (alpha_pow(cert.s, params)
            * powmod(cert.y, -cert.e, params.p)) % params.p


class TrustAuthority:
    """Stateful issuance front-end: groups, member ids, revocation list.

    The gid -> interest mapping is handed only to members of that group at
    registration time; everyone else sees gids as opaque labels.
    """

    def __init__(self, params: SystemParams, seed: int | random.Random) -> None:
        self.params = params
        self.rng = as_rng(seed)
        self.groups: dict[str, GroupParams] = {}
        self.rl = RevocationList()
        self.issued_ids: set[str] = set()

    def create_group(self, gid: str | None = None) -> GroupParams:
        if gid is None:
            gid = "G" + self.rng.getrandbits(64).to_bytes(8, "big").hex()
        if gid in self.groups:
            raise ValueError(f"group {gid!r} already exists")
        group = ta_create_group(self.params, gid, self.rng)
        self.groups[gid] = group
        return group

    def register(self, gid: str) -> Certificate:
        group = self.groups.get(gid)
        if group is None:
            raise KeyError(f"unknown group {gid!r}")
        return ta_register(group, self.params, self.rng, used_ids=self.issued_ids)

    def revoke(self, member_id: str) -> None:
        self.rl.revoke(member_id)

    def directory(self) -> dict[str, int]:
        """Public (gid, y) directory: group keys are known to everyone."""
        return {gid: g.y for gid, g in self.groups.items()}


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------

def handshake_round1(cert: Certificate, gid: str, params: SystemParams,
                     seed: int | random.Random) -> tuple[HandshakeMsg1, int]:
    """First flow: (gid, id, Y, B) plus the locally retained ephemeral b."""
    rng = as_rng(seed)
    b = rand_zq_star(rng, params.q)
    msg = HandshakeMsg1(gid=gid, id=cert.id,
                        Y=recover_commitment(cert, params),
                        B=alpha_pow(b, params))
    return msg, b


def _session_id(own_msg1: HandshakeMsg1, peer_msg1: HandshakeMsg1,
                own_is_initiator: bool) -> bytes:
    first, second = ((own_msg1, peer_msg1) if own_is_initiator
                     else (peer_msg1, own_msg1))
    return first.encoded + second.encoded


class _PeerView:
    """What a peer's round-1 prefix tells a receiver, read from its bytes:
    Y's subgroup verdict, e = H1(id, Y) if Y passes, and one slot for the
    verifier base y^e * Y under the last group key y asked for, bare at its
    first use and a power chain from its second.  ``h1`` replaces H1."""

    __slots__ = ("params", "Y", "member", "e", "_y", "_base")

    def __init__(self, params: SystemParams, prefix: bytes,
                 h1: H1Fn | None = None) -> None:
        _, member_id, self.Y, _ = _read_msg1_prefix(prefix)
        self.params, self.member = params, in_subgroup(self.Y, params)
        digest = h1 or functools.partial(h1_digest, params)
        self.e = digest(member_id, self.Y) if self.member else None
        self._y = self._base = None

    def verifier_pow(self, y: int, b: int) -> int:
        """(y^e * Y)^b mod p."""
        p = self.params.p
        if y != self._y:
            self._y, self._base = y, powmod(y, self.e, p) * self.Y % p
            return powmod(self._base, b, p)
        if type(self._base) is int:
            self._base = power_chain(self._base, self.params)
        return chain_pow(self._base, b, p)


# A peer's prefix recurs at every contact with it; B is fresh each time.
_peer = functools.lru_cache(maxsize=_PEER_MEMO_SIZE)(_PeerView)


def _round2_key(peer_msg1: HandshakeMsg1, s: int, rl: RevocationList,
                params: SystemParams) -> int | None:
    """The shared key B^s mod p, or None if the peer is revoked or its Y or
    ephemeral B lies outside the order-q subgroup.

    B^q and B^s share one power chain of B.  The secret s meets B only after
    ``1 < B < p`` holds and the B^q product equals 1.
    """
    p, B = params.p, peer_msg1.B
    if (rl.is_revoked(peer_msg1.id)
            or not _peer(params, peer_msg1.prefix).member
            or not 1 < B < p):
        return None
    chain = power_chain(B, params)
    if chain_pow(chain, params.q, p) != 1:
        return None
    return chain_pow(chain, s, p)


def handshake_round2(own_cert: Certificate, own_msg1: HandshakeMsg1,
                     own_is_initiator: bool, peer_msg1: HandshakeMsg1,
                     rl: RevocationList, params: SystemParams,
                     seed: int | random.Random) -> tuple[HandshakeMsg2, bool]:
    """Second flow: confirmation tag over peer ephemeral and session id.

    If the peer is revoked or structurally invalid the returned tag is
    uniformly random and ``reject`` is True; the wire shape is identical
    either way.
    """
    rng = as_rng(seed)
    sid = _session_id(own_msg1, peer_msg1, own_is_initiator)
    shared = _round2_key(peer_msg1, own_cert.s, rl, params)
    if shared is None:
        h = rng.getrandbits(params.kappa).to_bytes(params.kappa // 8, "big")
        return HandshakeMsg2(h=h, sid=sid), True
    return HandshakeMsg2(h=h2_tag(params, shared, sid), sid=sid), False


def verify_confirmation(own_b: int, own_msg1: HandshakeMsg1,
                        peer_msg1: HandshakeMsg1, own_is_initiator: bool,
                        peer_group_y: int, peer_msg2: HandshakeMsg2,
                        params: SystemParams, h1: H1Fn | None = None) -> bool:
    """Check the peer's tag: true iff it holds a certificate for claimed gid.

    Recomputes (y^H1(id, Y) * Y)^b over the session id and compares tags;
    the session id must bind both round-1 messages byte-exactly.  A peer Y
    outside the order-q subgroup fails before b is applied.
    """
    sid = _session_id(own_msg1, peer_msg1, own_is_initiator)
    if sid != peer_msg2.sid:
        return False
    peer = (_peer(params, peer_msg1.prefix) if h1 is None
            else _PeerView(params, peer_msg1.prefix, h1))
    if not peer.member:
        return False
    shared = peer.verifier_pow(peer_group_y, own_b)
    return h2_tag(params, shared, sid) == peer_msg2.h


def run_mutual_handshake(cert_i: Certificate, gid_i: str,
                         cert_j: Certificate, gid_j: str,
                         rl: RevocationList, directory: dict[str, int],
                         params: SystemParams,
                         seed: int | random.Random) -> dict:
    """Drive one full two-party handshake; node i initiates.

    Returns a transcript dict with both outcomes, both rounds' messages and
    reject flags, and all wire frames, used by the contact layer, the
    keytool demo and wire-capture tests.  A peer claiming an unknown gid
    fails verification on the other side.
    """
    rng = as_rng(seed)
    msg1_i, b_i = handshake_round1(cert_i, gid_i, params, rng)
    msg1_j, b_j = handshake_round1(cert_j, gid_j, params, rng)
    msg2_i, reject_i = handshake_round2(cert_i, msg1_i, True, msg1_j, rl, params, rng)
    msg2_j, reject_j = handshake_round2(cert_j, msg1_j, False, msg1_i, rl, params, rng)
    y_for_j = directory.get(msg1_j.gid)
    y_for_i = directory.get(msg1_i.gid)
    i_accepts = (not reject_i and y_for_j is not None
                 and verify_confirmation(b_i, msg1_i, msg1_j, True,
                                         y_for_j, msg2_j, params))
    j_accepts = (not reject_j and y_for_i is not None
                 and verify_confirmation(b_j, msg1_j, msg1_i, False,
                                         y_for_i, msg2_i, params))
    return {
        "i_accepts": i_accepts,
        "j_accepts": j_accepts,
        "mutual": i_accepts and j_accepts,
        "gid_i": msg1_i.gid,
        "gid_j": msg1_j.gid,
        "msg1": (msg1_i, msg1_j),
        "msg2": (msg2_i, msg2_j),
        "reject": (reject_i, reject_j),
        "wire": [encode_msg1(msg1_i), encode_msg1(msg1_j),
                 encode_msg2(msg2_i), encode_msg2(msg2_j)],
    }


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------

MSG1_TAG = b"\x01"
MSG2_TAG = b"\x02"


@functools.lru_cache(maxsize=_PEER_MEMO_SIZE)
def _msg1_prefix(gid: str, member_id: str, commitment: int) -> bytes:
    """Round-1 wire bytes up to B: the same at every contact of one
    credential, so only the fresh ephemeral is framed per message."""
    return (MSG1_TAG + _frame(gid.encode()) + _frame(member_id.encode())
            + _frame(int_to_bytes(commitment)))


def encode_msg1(msg: HandshakeMsg1) -> bytes:
    return msg.encoded


def _read_msg1_prefix(buf: bytes) -> tuple[str, str, int, int]:
    """gid, id and Y of a round-1 frame, and the offset just past Y."""
    if not buf.startswith(MSG1_TAG):
        raise ValueError("bad round-1 tag byte")
    gid, off = _read_frame(buf, 1)
    mid, off = _read_frame(buf, off)
    return (gid.decode(), mid.decode(), *_read_int_frame(buf, off))


def decode_msg1(buf: bytes) -> HandshakeMsg1:
    gid, mid, y, off = _read_msg1_prefix(buf)
    b, off = _read_int_frame(buf, off)
    if off != len(buf):
        raise ValueError("trailing bytes after round-1 message")
    return HandshakeMsg1(gid=gid, id=mid, Y=y, B=b)


def encode_msg2(msg: HandshakeMsg2, kappa: int = 256) -> bytes:
    if len(msg.h) != kappa // 8:
        raise ValueError("confirmation tag has wrong length")
    return MSG2_TAG + msg.h + _frame(msg.sid)


def decode_msg2(buf: bytes, kappa: int = 256) -> HandshakeMsg2:
    if not buf.startswith(MSG2_TAG):
        raise ValueError("bad round-2 tag byte")
    n = kappa // 8
    if len(buf) < 1 + n + 4:
        raise ValueError("round-2 message too short")
    h = buf[1:1 + n]
    sid, off = _read_frame(buf, 1 + n)
    if off != len(buf):
        raise ValueError("trailing bytes after round-2 message")
    return HandshakeMsg2(h=h, sid=sid)
