"""Standard security handler for encrypted PDFs (RC4-40/128, AESV2,
AES-256/AESV3),
implemented from the public PDF 32000-1:2008 spec §7.6 — the reference
gets decryption for free from poppler's ``pdftohtml``
(`/root/reference/src/parser/analyzer/Parser.php:68-79`); this module
gives the native front-end the same ability for the overwhelmingly
common case: files encrypted with an EMPTY user password (most
"protected" distributed documents).

Covers:
* key derivation Algorithms 2/3/4/5 (file key from the empty user
  password, /O and /U generation used by the fixture builder and the
  password check);
* per-object keys (Algorithm 1, incl. the AESV2 ``sAlT`` suffix);
* /V 5 AES-256 (AESV3, ISO 32000-2): revision 5's SHA-256 check and
  revision 6's Algorithm 2.B hardened hash, /U validation + /UE file
  key unwrap — the file key is used directly (no per-object
  derivation);
* RC4 and pure-Python AES-128/192/256-CBC (FIPS-197 Appendix C
  vectors pinned in tests; both directions: the reader decrypts, the
  test fixture builder encrypts).

Everything here is driver/worker-local pure computation — no Ray
surface.  Non-empty passwords raise.
"""

from __future__ import annotations

import hashlib

PAD = bytes([
    0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41,
    0x64, 0x00, 0x4E, 0x56, 0xFF, 0xFA, 0x01, 0x08,
    0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
    0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
])


def rc4(key: bytes, data: bytes) -> bytes:
    """RC4 stream cipher (symmetric: encrypt == decrypt)."""
    S = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + S[i] + key[i % klen]) & 0xFF
        S[i], S[j] = S[j], S[i]
    out = bytearray(len(data))
    i = j = 0
    for n, c in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + S[i]) & 0xFF
        S[i], S[j] = S[j], S[i]
        out[n] = c ^ S[(S[i] + S[j]) & 0xFF]
    return bytes(out)


# ---------------------------------------------------------------------------
# AES-128/192/256 (FIPS-197), portable pure Python — fixture-scale throughput
# ---------------------------------------------------------------------------

_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16")
_INV_SBOX = bytearray(256)
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i
_INV_SBOX = bytes(_INV_SBOX)
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(a: int) -> int:
    a <<= 1
    return (a ^ 0x1B) & 0xFF if a & 0x100 else a


def _mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a = _xtime(a)
        b >>= 1
    return out


def _expand_key(key: bytes) -> "list[bytes]":
    """FIPS-197 key schedule for Nk ∈ {4, 6, 8} (AES-128/192/256):
    Nr = Nk + 6 rounds, with the extra SubWord step every Nk words
    when Nk > 6 (§5.2)."""
    nk = len(key) // 4
    nr = nk + 6
    total = 4 * (nr + 1)
    words = [key[i:i + 4] for i in range(0, len(key), 4)]
    for i in range(nk, total):
        t = words[i - 1]
        if i % nk == 0:
            t = bytes(_SBOX[b] for b in t[1:] + t[:1])
            t = bytes([t[0] ^ _RCON[i // nk - 1]]) + t[1:]
        elif nk > 6 and i % nk == 4:
            t = bytes(_SBOX[b] for b in t)
        words.append(bytes(a ^ b for a, b in zip(words[i - nk], t)))
    return [b"".join(words[i:i + 4]) for i in range(0, total, 4)]


def _add_rk(state: bytearray, rk: bytes) -> None:
    for i in range(16):
        state[i] ^= rk[i]


_SHIFT = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]
_INV_SHIFT = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3]


def _encrypt_block(block: bytes, rks: "list[bytes]") -> bytes:
    nr = len(rks) - 1
    s = bytearray(block)
    _add_rk(s, rks[0])
    for rnd in range(1, nr):
        s = bytearray(_SBOX[s[_SHIFT[i]]] for i in range(16))
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c:c + 4]
            s[c] = _mul(a0, 2) ^ _mul(a1, 3) ^ a2 ^ a3
            s[c + 1] = a0 ^ _mul(a1, 2) ^ _mul(a2, 3) ^ a3
            s[c + 2] = a0 ^ a1 ^ _mul(a2, 2) ^ _mul(a3, 3)
            s[c + 3] = _mul(a0, 3) ^ a1 ^ a2 ^ _mul(a3, 2)
        _add_rk(s, rks[rnd])
    s = bytearray(_SBOX[s[_SHIFT[i]]] for i in range(16))
    _add_rk(s, rks[nr])
    return bytes(s)


def _decrypt_block(block: bytes, rks: "list[bytes]") -> bytes:
    nr = len(rks) - 1
    s = bytearray(block)
    _add_rk(s, rks[nr])
    for rnd in range(nr - 1, 0, -1):
        s = bytearray(_INV_SBOX[s[_INV_SHIFT[i]]] for i in range(16))
        _add_rk(s, rks[rnd])
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c:c + 4]
            s[c] = _mul(a0, 14) ^ _mul(a1, 11) ^ _mul(a2, 13) ^ _mul(a3, 9)
            s[c + 1] = _mul(a0, 9) ^ _mul(a1, 14) ^ _mul(a2, 11) ^ _mul(a3, 13)
            s[c + 2] = _mul(a0, 13) ^ _mul(a1, 9) ^ _mul(a2, 14) ^ _mul(a3, 11)
            s[c + 3] = _mul(a0, 11) ^ _mul(a1, 13) ^ _mul(a2, 9) ^ _mul(a3, 14)
    s = bytearray(_INV_SBOX[s[_INV_SHIFT[i]]] for i in range(16))
    _add_rk(s, rks[0])
    return bytes(s)


# --- OpenSSL EVP fast path -------------------------------------------------
# Pure-Python AES runs at fixture speed (~100 KB/s); an encrypted
# CORPUS needs the platform cipher.  libcrypto is loaded lazily via
# ctypes and every CBC entry point silently falls back to the
# pure-Python core when it is absent — the FIPS-197-pinned code above
# stays the reference implementation AND the portability path, and a
# cross-check test asserts both produce identical bytes (OpenSSL as
# the independent oracle).
_EVP = None
_FORCE_PURE = False  # tests flip this to pin the pure path


def _load_evp():
    global _EVP
    if _EVP is None:
        try:
            import ctypes
            import ctypes.util

            lib = ctypes.CDLL(ctypes.util.find_library("crypto")
                              or "libcrypto.so.3")
            lib.EVP_CIPHER_CTX_new.restype = ctypes.c_void_p
            lib.EVP_CIPHER_CTX_free.argtypes = [ctypes.c_void_p]
            for name in ("EVP_aes_128_cbc", "EVP_aes_192_cbc",
                         "EVP_aes_256_cbc"):
                getattr(lib, name).restype = ctypes.c_void_p
            lib.EVP_CipherInit_ex.argtypes = [
                ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                ctypes.c_char_p, ctypes.c_char_p, ctypes.c_int]
            lib.EVP_CIPHER_CTX_set_padding.argtypes = [ctypes.c_void_p,
                                                       ctypes.c_int]
            lib.EVP_CipherUpdate.argtypes = [
                ctypes.c_void_p, ctypes.c_void_p,
                ctypes.POINTER(ctypes.c_int), ctypes.c_char_p,
                ctypes.c_int]
            _EVP = (lib, ctypes)
        except Exception:
            _EVP = False
    return _EVP or None


def _evp_cbc(key: bytes, iv: bytes, data: bytes,
             encrypt: bool) -> "bytes | None":
    """AES-CBC via OpenSSL, padding DISABLED (callers pad/unpad with
    the same logic as the pure path).  None → fall back."""
    if _FORCE_PURE or len(data) % 16:
        return None
    loaded = _load_evp()
    if loaded is None:
        return None
    lib, ctypes = loaded
    cipher = {16: lib.EVP_aes_128_cbc, 24: lib.EVP_aes_192_cbc,
              32: lib.EVP_aes_256_cbc}[len(key)]()
    ctx = lib.EVP_CIPHER_CTX_new()
    try:
        if not lib.EVP_CipherInit_ex(ctx, cipher, None, key, iv,
                                     1 if encrypt else 0):
            return None
        lib.EVP_CIPHER_CTX_set_padding(ctx, 0)
        # a bytearray, not create_string_buffer: that makes a new
        # ctypes array type per length, and every type is cyclic garbage
        out = bytearray(len(data) + 16)
        n = ctypes.c_int(0)
        if not lib.EVP_CipherUpdate(
                ctx, ctypes.addressof(ctypes.c_char.from_buffer(out)),
                ctypes.byref(n), data, len(data)):
            return None
        return bytes(out[:n.value])
    finally:
        lib.EVP_CIPHER_CTX_free(ctx)


def aes_cbc_encrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """AES-CBC with PKCS#7 padding; returns iv + ciphertext (the PDF
    AESV2/AESV3 wire format)."""
    pad = 16 - len(data) % 16
    data = data + bytes([pad]) * pad
    fast = _evp_cbc(key, iv, data, encrypt=True)
    if fast is not None:
        return iv + fast
    rks = _expand_key(key)
    out = bytearray(iv)
    prev = iv
    for i in range(0, len(data), 16):
        block = bytes(a ^ b for a, b in zip(data[i:i + 16], prev))
        prev = _encrypt_block(block, rks)
        out += prev
    return bytes(out)


def aes_cbc_decrypt(key: bytes, data: bytes) -> bytes:
    """Inverse of aes_cbc_encrypt: data = iv + ciphertext."""
    if len(data) < 32 or len(data) % 16:
        return b""  # malformed AESV2 payload
    out = _evp_cbc(key, data[:16], data[16:], encrypt=False)
    if out is None:
        rks = _expand_key(key)
        prev = data[:16]
        out = bytearray()
        for i in range(16, len(data), 16):
            block = data[i:i + 16]
            out += bytes(a ^ b for a, b in zip(_decrypt_block(block, rks),
                                               prev))
            prev = block
    pad = out[-1] if out else 0
    if 1 <= pad <= 16:
        out = out[:-pad]
    return bytes(out)


def aes_cbc_encrypt_raw(key: bytes, iv: bytes, data: bytes) -> bytes:
    """AES-CBC, NO padding, NO IV prefix (len(data) % 16 == 0) — the
    primitive Algorithm 2.B and the /UE//OE wrapping use."""
    fast = _evp_cbc(key, iv, data, encrypt=True)
    if fast is not None:
        return fast
    rks = _expand_key(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(data), 16):
        block = bytes(a ^ b for a, b in zip(data[i:i + 16], prev))
        prev = _encrypt_block(block, rks)
        out += prev
    return bytes(out)


def aes_cbc_decrypt_raw(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Inverse of aes_cbc_encrypt_raw (no padding, explicit IV)."""
    fast = _evp_cbc(key, iv, data, encrypt=False)
    if fast is not None:
        return fast
    rks = _expand_key(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(data), 16):
        block = data[i:i + 16]
        out += bytes(a ^ b for a, b in zip(_decrypt_block(block, rks),
                                           prev))
        prev = block
    return bytes(out)


def hash_2b(password: bytes, salt: bytes, udata: bytes) -> bytes:
    """ISO 32000-2 Algorithm 2.B (revision 6 hardened hash): iterated
    SHA-256/384/512 selected by an AES-128-CBC round, ≥ 64 rounds,
    terminating once the last cipher byte ≤ round − 32.  The AES core
    is FIPS-197-pinned above and the SHA-2 family comes from hashlib,
    so the only handler-specific logic here is the loop itself."""
    k = hashlib.sha256(password + salt + udata).digest()
    i = 0
    while True:
        k1 = (password + k + udata) * 64
        e = aes_cbc_encrypt_raw(k[:16], k[16:32], k1)
        mod = sum(e[:16]) % 3
        k = (hashlib.sha256, hashlib.sha384,
             hashlib.sha512)[mod](e).digest()
        i += 1
        if i >= 64 and e[-1] <= i - 32:
            return k[:32]


# ---------------------------------------------------------------------------
# Standard security handler (PDF 32000-1:2008 §7.6.3)
# ---------------------------------------------------------------------------

def _pad_password(pw: bytes) -> bytes:
    return (pw + PAD)[:32]


def compute_o(owner_pw: bytes, user_pw: bytes, revision: int,
              key_len: int) -> bytes:
    """Algorithm 3: the /O entry."""
    h = hashlib.md5(_pad_password(owner_pw or user_pw)).digest()
    if revision >= 3:
        for _ in range(50):
            h = hashlib.md5(h).digest()
    rc4_key = h[:key_len]
    o = rc4(rc4_key, _pad_password(user_pw))
    if revision >= 3:
        for i in range(1, 20):
            o = rc4(bytes(b ^ i for b in rc4_key), o)
    return o


def compute_file_key(user_pw: bytes, o: bytes, p: int, id0: bytes,
                     revision: int, key_len: int,
                     encrypt_metadata: bool = True) -> bytes:
    """Algorithm 2: the file encryption key."""
    buf = _pad_password(user_pw) + o[:32] \
        + (p & 0xFFFFFFFF).to_bytes(4, "little") + id0
    if revision >= 4 and not encrypt_metadata:
        buf += b"\xff\xff\xff\xff"
    h = hashlib.md5(buf).digest()
    if revision >= 3:
        for _ in range(50):
            h = hashlib.md5(h[:key_len]).digest()
    return h[:key_len]


def compute_u(file_key: bytes, id0: bytes, revision: int) -> bytes:
    """Algorithms 4 (R2) / 5 (R≥3): the /U entry."""
    if revision == 2:
        return rc4(file_key, PAD)
    h = hashlib.md5(PAD + id0).digest()
    u = rc4(file_key, h)
    for i in range(1, 20):
        u = rc4(bytes(b ^ i for b in file_key), u)
    return u + b"\x00" * 16


def object_key(file_key: bytes, num: int, gen: int,
               aes: bool = False) -> bytes:
    """Algorithm 1: the per-object key."""
    buf = file_key + num.to_bytes(3, "little") + gen.to_bytes(2, "little")
    if aes:
        buf += b"sAlT"
    return hashlib.md5(buf).digest()[:min(len(file_key) + 5, 16)]


class StandardDecryptor:
    """Holds the derived file key; decrypts per-object payloads.
    ``method`` is "rc4", "aesv2" or "aesv3" (AESV3 uses the 32-byte
    file key for every object — ISO 32000-2 drops the per-object
    derivation)."""

    def __init__(self, file_key: bytes, method: str) -> None:
        self.file_key = file_key
        self.method = method

    def _key(self, num: int, gen: int) -> bytes:
        if self.method == "aesv3":
            return self.file_key
        return object_key(self.file_key, num, gen,
                          aes=self.method == "aesv2")

    def decrypt(self, data: bytes, num: int, gen: int) -> bytes:
        k = self._key(num, gen)
        if self.method in ("aesv2", "aesv3"):
            return aes_cbc_decrypt(k, data)
        return rc4(k, data)

    def encrypt(self, data: bytes, num: int, gen: int,
                iv: bytes = b"\x00" * 16) -> bytes:
        """Fixture-builder direction (deterministic IV by default —
        fine for tests, never used by the reader)."""
        k = self._key(num, gen)
        if self.method in ("aesv2", "aesv3"):
            return aes_cbc_encrypt(k, iv, data)
        return rc4(k, data)


def build_decryptor(encrypt_dict: dict, id0: bytes, resolve=lambda x: x):
    """Trailer /Encrypt dict → StandardDecryptor (empty user password
    only).  Raises NotImplementedError for non-standard handlers,
    /V 5+, or files whose user password is not empty."""
    filt = resolve(encrypt_dict.get("/Filter"))
    if filt != "/Standard":
        raise NotImplementedError(f"unsupported security handler {filt!r}")
    v = int(resolve(encrypt_dict.get("/V")) or 0)
    r = int(resolve(encrypt_dict.get("/R")) or 2)
    if v == 5:
        return _build_v5_decryptor(encrypt_dict, r, resolve)
    if v not in (1, 2, 4):
        raise NotImplementedError(f"unsupported /Encrypt /V {v}")
    length = int(resolve(encrypt_dict.get("/Length")) or 40)
    key_len = 5 if v == 1 else length // 8
    method = "rc4"
    encrypt_metadata = True
    if v == 4:
        em = resolve(encrypt_dict.get("/EncryptMetadata"))
        if em is False:
            encrypt_metadata = False
        cf = resolve(encrypt_dict.get("/CF")) or {}
        stmf = resolve(encrypt_dict.get("/StmF")) or "/Identity"
        cfm = None
        if isinstance(cf, dict) and stmf != "/Identity":
            entry = resolve(cf.get(stmf)) or {}
            cfm = resolve(entry.get("/CFM"))
            cflen = resolve(entry.get("/Length"))
            if cflen:
                # /CF /Length is in BYTES per spec, but some writers
                # emit bits — treat values > 40 as bits
                cflen = int(cflen)
                key_len = cflen // 8 if cflen > 40 else cflen
        if cfm == "/AESV2":
            method = "aesv2"
            key_len = 16
        elif cfm in ("/V2", None):
            method = "rc4"
        else:
            raise NotImplementedError(f"unsupported /CFM {cfm}")
    o = resolve(encrypt_dict.get("/O"))
    u = resolve(encrypt_dict.get("/U"))
    p = int(resolve(encrypt_dict.get("/P")) or -1)
    if not isinstance(o, bytes) or not isinstance(u, bytes):
        raise NotImplementedError("malformed /Encrypt: missing /O or /U")
    file_key = compute_file_key(b"", o, p, id0, r, key_len,
                                encrypt_metadata)
    expect_u = compute_u(file_key, id0, r)
    if expect_u[:16] != bytes(u)[:16]:
        raise NotImplementedError(
            "PDF requires a non-empty user password (only the empty "
            "user password is supported)")
    return StandardDecryptor(file_key, method)


def _build_v5_decryptor(encrypt_dict: dict, r: int, resolve):
    """/V 5 (AES-256, AESV3): validate the EMPTY user password against
    /U's 48-byte hash‖validation-salt‖key-salt layout (revision 5 =
    plain SHA-256, revision 6 = Algorithm 2.B), then unwrap the file
    key from /UE with AES-256-CBC (zero IV, no padding).  The owner
    path (/O, /OE) is not consulted — the empty USER password is the
    supported case, matching the RC4/AESV2 handlers above."""
    if r not in (5, 6):
        raise NotImplementedError(f"unsupported /V 5 revision {r}")
    u = resolve(encrypt_dict.get("/U"))
    ue = resolve(encrypt_dict.get("/UE"))
    if not isinstance(u, bytes) or len(u) < 48 or \
            not isinstance(ue, bytes) or len(ue) < 32:
        raise NotImplementedError("malformed /Encrypt: /U or /UE")
    u_hash, vsalt, ksalt = u[:32], u[32:40], u[40:48]
    if r == 6:
        check = hash_2b(b"", vsalt, b"")
        inter = hash_2b(b"", ksalt, b"")
    else:
        check = hashlib.sha256(vsalt).digest()       # pw = b""
        inter = hashlib.sha256(ksalt).digest()
    if check != u_hash:
        raise NotImplementedError(
            "PDF requires a non-empty user password (only the empty "
            "user password is supported)")
    file_key = aes_cbc_decrypt_raw(inter, b"\x00" * 16, ue[:32])
    return StandardDecryptor(file_key, "aesv3")
