//! Authenticated-encryption known-answer tests: NIST GCM vectors
//! (McGrew–Viega test cases, including the empty-plaintext and AAD-only
//! shapes), RFC 3394 key-wrap vectors for all three KEK sizes, IEEE
//! 1619 XTS vectors including ciphertext stealing, and property-based
//! round-trip/tamper laws swept across every detected backend and all
//! three AES key sizes — XTS against a scalar per-block oracle
//! (`support/xts_oracle.rs`) — plus the end-to-end service acceptance
//! flow (SET_KEY 32 bytes → SEAL → OPEN → TagMismatch → WRAP/UNWRAP).

#[path = "support/xts_oracle.rs"]
mod xts_oracle;

use rijndael_ip::rijndael::aead::{self, Xts};
use rijndael_ip::rijndael::dispatch::Kind;
use rijndael_ip::rijndael::ttable::TtableAes;
use rijndael_ip::rijndael::{Aead, AutoCipher, Gcm};
use rijndael_ip::service::client::Client;
use rijndael_ip::service::server::{Server, ServiceConfig};
use rijndael_ip::service::transport::Transport;
use testkit::forall;
use testkit::prop::{any, vec_of};

fn hex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

fn nonce12(s: &str) -> [u8; 12] {
    hex(s).try_into().expect("12 bytes")
}

/// A GCM cipher over the T-table core for any AES key size.
fn gcm(key: &str) -> Gcm<TtableAes> {
    Gcm::new(TtableAes::new(&hex(key)).expect("valid key length"))
}

/// One McGrew–Viega GCM check: seal must produce `ct ‖ tag`, and open
/// must invert it.
fn gcm_case(key: &str, iv: &str, aad: &str, pt: &str, ct: &str, tag: &str) {
    let cipher = gcm(key);
    let nonce = nonce12(iv);
    let (aad, pt) = (hex(aad), hex(pt));
    let mut expect = hex(ct);
    expect.extend_from_slice(&hex(tag));
    let sealed = cipher.seal(&nonce, &aad, &pt);
    assert_eq!(sealed, expect, "seal mismatch for key {key}");
    assert_eq!(cipher.open(&nonce, &aad, &sealed).unwrap(), pt);
}

#[test]
fn gcm_nist_test_case_1_empty_everything() {
    // AES-128, empty plaintext, empty AAD: the tag is E(J0) ⊕ GHASH of
    // the all-lengths-zero block.
    gcm_case(
        "00000000000000000000000000000000",
        "000000000000000000000000",
        "",
        "",
        "",
        "58e2fccefa7e3061367f1d57a4e7455a",
    );
}

#[test]
fn gcm_nist_test_case_2_single_zero_block() {
    gcm_case(
        "00000000000000000000000000000000",
        "000000000000000000000000",
        "",
        "00000000000000000000000000000000",
        "0388dace60b6a392f328c2b971b2fe78",
        "ab6e47d42cec13bdf53a67b21257bddf",
    );
}

#[test]
fn gcm_nist_test_case_3_four_blocks_no_aad() {
    gcm_case(
        "feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
         21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        "4d5c2af327cd64a62cf35abd2ba6fab4",
    );
}

#[test]
fn gcm_nist_test_case_4_ragged_tail_with_aad() {
    gcm_case(
        "feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
         21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        "5bc94fbc3221a5db94fae95ae7121a47",
    );
}

#[test]
fn gcm_nist_aes192_test_case_10() {
    gcm_case(
        "feffe9928665731c6d6a8f9467308308feffe9928665731c",
        "cafebabefacedbaddecaf888",
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        "3980ca0b3c00e841eb06fac4872a2757859e1ceaa6efd984628593b40ca1e19c\
         7d773d00c144c525ac619d18c84a3f4718e2448b2fe324d9ccda2710",
        "2519498e80f1478f37ba55bd6d27618c",
    );
}

#[test]
fn gcm_nist_aes256_test_case_16() {
    gcm_case(
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
         8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
        "76fc6ece0f4e1768cddf8853bb2d551b",
    );
}

#[test]
fn gcm_aad_only_message_authenticates() {
    // No plaintext at all: GCM degenerates to a MAC over the AAD, and a
    // flipped AAD bit must still be caught.
    let cipher = gcm("feffe9928665731c6d6a8f9467308308");
    let nonce = [0x5A; 12];
    let sealed = cipher.seal(&nonce, b"associated data only", b"");
    assert_eq!(sealed.len(), 16, "tag only");
    assert_eq!(
        cipher
            .open(&nonce, b"associated data only", &sealed)
            .unwrap(),
        Vec::<u8>::new()
    );
    assert_eq!(
        cipher.open(&nonce, b"associated data onlY", &sealed),
        Err(aead::Error::TagMismatch)
    );
}

// ---------------------------------------------------------------------
// RFC 3394 key wrap
// ---------------------------------------------------------------------

fn wrap_case(kek: &str, key_data: &str, wrapped: &str) {
    let cipher = TtableAes::new(&hex(kek)).expect("valid KEK length");
    let got = aead::wrap(&cipher, &hex(key_data)).unwrap();
    assert_eq!(got, hex(wrapped), "wrap mismatch for KEK {kek}");
    assert_eq!(aead::unwrap(&cipher, &got).unwrap(), hex(key_data));
}

#[test]
fn key_wrap_rfc3394_section_4_vectors() {
    // §4.1: 128-bit key data under a 128-bit KEK.
    wrap_case(
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "1fa68b0a8112b447aef34bd8fb5a7b829d3e862371d2cfe5",
    );
    // §4.2: 128-bit key data under a 192-bit KEK.
    wrap_case(
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "00112233445566778899aabbccddeeff",
        "96778b25ae6ca435f92b5b97c050aed2468ab8a17ad84e5d",
    );
    // §4.3: 128-bit key data under a 256-bit KEK.
    wrap_case(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "00112233445566778899aabbccddeeff",
        "64e8c3f9ce0f5ba263e9777905818a2a93c8191e7d6e8ae7",
    );
    // §4.4: 192-bit key data under a 192-bit KEK.
    wrap_case(
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "00112233445566778899aabbccddeeff0001020304050607",
        "031d33264e15d33268f24ec260743edce1c6c7ddee725a936ba814915c6762d2",
    );
    // §4.6: 256-bit key data under a 256-bit KEK.
    wrap_case(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "00112233445566778899aabbccddeeff000102030405060708090a0b0c0d0e0f",
        "28c9f404c4b810f4cbccb35cfb87f8263f5786e2d80ed326cbc7f0e71a99f43bfb988b9b7a02dd21",
    );
}

#[test]
fn key_unwrap_rejects_a_corrupt_integrity_value() {
    let cipher = TtableAes::new(&hex("000102030405060708090a0b0c0d0e0f")).unwrap();
    let mut wrapped = hex("1fa68b0a8112b447aef34bd8fb5a7b829d3e862371d2cfe5");
    wrapped[0] ^= 1;
    assert_eq!(
        aead::unwrap(&cipher, &wrapped),
        Err(aead::Error::TagMismatch)
    );
}

// ---------------------------------------------------------------------
// IEEE 1619 XTS
// ---------------------------------------------------------------------

fn xts_case(key1: &str, key2: &str, sector: u64, pt: &str, ct: &str) {
    let xts = Xts::new(
        TtableAes::new(&hex(key1)).expect("data key"),
        TtableAes::new(&hex(key2)).expect("tweak key"),
    );
    let mut buf = hex(pt);
    xts.encrypt_sector(sector, &mut buf).unwrap();
    assert_eq!(buf, hex(ct), "encrypt mismatch for sector {sector}");
    xts.decrypt_sector(sector, &mut buf).unwrap();
    assert_eq!(buf, hex(pt), "decrypt mismatch for sector {sector}");

    // The vector pins the scalar oracle too, so the law sweep below
    // compares against a reference that is itself known-answer checked.
    let (k1, k2) = (
        TtableAes::new(&hex(key1)).unwrap(),
        TtableAes::new(&hex(key2)).unwrap(),
    );
    xts_oracle::sector(&k1, &k2, sector, &mut buf, false);
    assert_eq!(buf, hex(ct), "oracle encrypt mismatch for sector {sector}");
    xts_oracle::sector(&k1, &k2, sector, &mut buf, true);
    assert_eq!(buf, hex(pt), "oracle decrypt mismatch for sector {sector}");
}

#[test]
fn xts_ieee1619_vector_1_all_zero() {
    xts_case(
        "00000000000000000000000000000000",
        "00000000000000000000000000000000",
        0,
        "0000000000000000000000000000000000000000000000000000000000000000",
        "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e",
    );
}

#[test]
fn xts_ieee1619_vector_2_nonzero_sector() {
    xts_case(
        "11111111111111111111111111111111",
        "22222222222222222222222222222222",
        0x3333333333,
        "4444444444444444444444444444444444444444444444444444444444444444",
        "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0",
    );
}

#[test]
fn xts_ieee1619_vector_15_ciphertext_stealing() {
    // 17-byte sector: one full block plus one stolen byte.
    xts_case(
        "fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0",
        "bfbebdbcbbbab9b8b7b6b5b4b3b2b1b0",
        0x9a78563412,
        "000102030405060708090a0b0c0d0e0f10",
        "641610679dcbf92e505c41333fb06c2a95",
    );
}

// ---------------------------------------------------------------------
// Properties across backends and key sizes
// ---------------------------------------------------------------------

/// Every dispatchable backend that can build a cipher for `key`
/// (IP-core has no software cipher and is skipped by `for_kind`).
fn detected_ciphers(key: &[u8]) -> Vec<(Kind, AutoCipher)> {
    Kind::detected()
        .into_iter()
        .filter_map(|kind| AutoCipher::for_kind(kind, key).map(|c| (kind, c)))
        .collect()
}

forall!(cases = 24, fn gcm_roundtrips_on_every_backend_and_key_size(
    key in any::<[u8; 32]>(),
    nonce in any::<[u8; 12]>(),
    aad in vec_of(any::<u8>(), 0..24),
    pt in vec_of(any::<u8>(), 0..200),
) {
    for key_len in [16usize, 24, 32] {
        for (kind, cipher) in detected_ciphers(&key[..key_len]) {
            let gcm = Gcm::new(cipher);
            let sealed = gcm.seal(&nonce, &aad, &pt);
            assert_eq!(sealed.len(), pt.len() + 16);
            assert_eq!(
                gcm.open(&nonce, &aad, &sealed).unwrap(), pt,
                "roundtrip failed on {kind:?} with a {key_len}-byte key"
            );
        }
    }
});

forall!(cases = 24, fn gcm_backends_agree_with_the_ttable_reference(
    key in any::<[u8; 32]>(),
    nonce in any::<[u8; 12]>(),
    pt in vec_of(any::<u8>(), 0..200),
) {
    for key_len in [16usize, 24, 32] {
        let reference = Gcm::new(TtableAes::new(&key[..key_len]).unwrap())
            .seal(&nonce, b"aad", &pt);
        for (kind, cipher) in detected_ciphers(&key[..key_len]) {
            assert_eq!(
                Gcm::new(cipher).seal(&nonce, b"aad", &pt), reference,
                "{kind:?} disagrees with the T-table reference ({key_len}-byte key)"
            );
        }
    }
});

forall!(cases = 24, fn gcm_detects_any_single_corruption(
    key in any::<[u8; 16]>(),
    pt in vec_of(any::<u8>(), 1..64),
    flip in any::<(usize, u8)>(),
) {
    let gcm = Gcm::new(TtableAes::new(&key).unwrap());
    let nonce = [9u8; 12];
    let mut sealed = gcm.seal(&nonce, b"", &pt);
    let bit = 1u8 << (flip.1 % 8);
    let pos = flip.0 % sealed.len();
    sealed[pos] ^= bit;
    assert_eq!(gcm.open(&nonce, b"", &sealed), Err(aead::Error::TagMismatch));
});

forall!(cases = 24, fn xts_roundtrips_ragged_sectors_on_every_key_size(
    key in any::<[u8; 32]>(),
    tweak_key in any::<[u8; 32]>(),
    sector in any::<u64>(),
    pt in vec_of(any::<u8>(), 16..96),
) {
    for key_len in [16usize, 24, 32] {
        let xts = Xts::new(
            TtableAes::new(&key[..key_len]).unwrap(),
            TtableAes::new(&tweak_key[..key_len]).unwrap(),
        );
        let mut buf = pt.clone();
        xts.encrypt_sector(sector, &mut buf).unwrap();
        assert_ne!(buf, pt, "XTS must change the sector");
        xts.decrypt_sector(sector, &mut buf).unwrap();
        assert_eq!(buf, pt, "XTS roundtrip failed ({key_len}-byte keys)");
    }
});

forall!(cases = 12, fn xts_matches_the_scalar_oracle_on_every_backend(
    key in any::<[u8; 32]>(),
    tweak_key in any::<[u8; 32]>(),
    sector in any::<u64>(),
    pt in vec_of(any::<u8>(), 16..3 * 1024 + 16),
) {
    // Up to three 64-block spans. Each case also runs its whole-block
    // prefix (so 12 cases check 24 lengths), crossing a span boundary
    // both with and without a stealing tail; sector numbers 0 and
    // u64::MAX pin the tweak edges.
    let whole = pt.len() / 16 * 16;
    for key_len in [16usize, 24, 32] {
        let (k1, k2) = (&key[..key_len], &tweak_key[..key_len]);
        let oracle = (TtableAes::new(k1).unwrap(), TtableAes::new(k2).unwrap());
        let lanes: Vec<(Kind, Xts<AutoCipher>)> = detected_ciphers(k1)
            .into_iter()
            .map(|(kind, data)| {
                let tweak = AutoCipher::for_kind(kind, k2).expect("same kind as the data key");
                (kind, Xts::new(data, tweak))
            })
            .collect();
        for len in [pt.len(), whole] {
            for number in [0, u64::MAX, sector] {
                for decrypt in [false, true] {
                    let mut expect = pt[..len].to_vec();
                    xts_oracle::sector(&oracle.0, &oracle.1, number, &mut expect, decrypt);
                    for (kind, xts) in &lanes {
                        let mut got = pt[..len].to_vec();
                        if decrypt {
                            xts.decrypt_sector(number, &mut got).unwrap();
                        } else {
                            xts.encrypt_sector(number, &mut got).unwrap();
                        }
                        assert_eq!(
                            got, expect,
                            "{kind:?} disagrees with the oracle: {key_len}-byte keys, \
                             {len} bytes, sector {number}, decrypt {decrypt}"
                        );
                    }
                }
            }
        }
    }
});

forall!(cases = 24, fn key_wrap_roundtrips_arbitrary_key_data(
    kek in any::<[u8; 32]>(),
    data in vec_of(any::<u8>(), 16..64),
) {
    // Trim to a legal semiblock multiple (≥ 2 semiblocks).
    let len = (data.len() / 8) * 8;
    for key_len in [16usize, 24, 32] {
        let cipher = TtableAes::new(&kek[..key_len]).unwrap();
        let wrapped = aead::wrap(&cipher, &data[..len]).unwrap();
        assert_eq!(wrapped.len(), len + 8);
        assert_eq!(aead::unwrap(&cipher, &wrapped).unwrap(), &data[..len]);
    }
});

// ---------------------------------------------------------------------
// Service acceptance flow
// ---------------------------------------------------------------------

#[test]
fn service_acceptance_seal_open_wrap_with_an_aes256_session() {
    let server = Server::new(ServiceConfig::default())
        .spawn("127.0.0.1:0")
        .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A v2 client can SET_KEY a 32-byte key...
    let key: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(11) ^ 0x3C).collect();
    let sid = client.set_key(&key).unwrap();
    assert_ne!(sid, 0);

    // ...SEAL with AAD and OPEN it back...
    let nonce = [0xABu8; 12];
    let sealed = client
        .seal(&nonce, b"record header", b"the acceptance payload")
        .unwrap();
    // The wire result must equal the local construction under the same
    // key — the service adds nothing and removes nothing.
    let local = Gcm::new(TtableAes::new(&key).unwrap()).seal(
        &nonce,
        b"record header",
        b"the acceptance payload",
    );
    assert_eq!(sealed, local);
    assert_eq!(
        client
            .open(&nonce, b"record header", &sealed)
            .unwrap()
            .as_deref(),
        Some(b"the acceptance payload".as_slice())
    );

    // ...get TagMismatch on a flipped ciphertext bit...
    let mut tampered = sealed;
    tampered[4] ^= 0x10;
    assert_eq!(
        client.open(&nonce, b"record header", &tampered).unwrap(),
        None
    );

    // ...and WRAP/UNWRAP a session key.
    let session_key: Vec<u8> = (0..24u8).collect();
    let wrapped = client.wrap_key(&session_key).unwrap();
    assert_eq!(wrapped.len(), session_key.len() + 8);
    assert_eq!(
        client.unwrap_key(&wrapped).unwrap().as_deref(),
        Some(session_key.as_slice())
    );
    let mut bad = wrapped;
    bad[9] ^= 1;
    assert_eq!(client.unwrap_key(&bad).unwrap(), None);

    server.shutdown();
}
