"""CryptoPool: pooled results == inline results, counters stay exact."""

import pytest

from repro.core.packets import encrypt_packets, reencrypt_key_for_links
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.crypto.stream import SymmetricKey
from repro.deployment import Deployment
from repro.metrics.dataplane import counters as dataplane_counters
from repro.metrics.hotpath import counters as hotpath_counters
from repro.parallel import CryptoPool


@pytest.fixture(scope="module")
def pool():
    with CryptoPool(workers=2, min_chunk=4) as shared:
        yield shared


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(HmacDrbg(b"pool-test", b"rsa"), bits=512)


def _batch(n):
    key = SymmetricKey(b"p" * 16)
    plaintexts = [bytes([i % 251]) * 100 for i in range(n)]
    nonces = list(range(n))
    return key, plaintexts, nonces


class TestPooledEqualsInline:
    def test_encrypt_many(self, pool):
        key, plaintexts, nonces = _batch(30)
        assert pool.encrypt_many(key, plaintexts, nonces, aad=b"x") == \
            key.encrypt_many(plaintexts, nonces, aad=b"x")

    def test_seal_links(self, pool):
        session_keys = [SymmetricKey(bytes([i]) * 16) for i in range(20)]
        inline = [sk.encrypt(b"m" * 16, nonce=7, aad=b"kd") for sk in session_keys]
        assert pool.seal_links(b"m" * 16, 7, b"kd", session_keys) == inline

    def test_sign_many(self, pool, keypair):
        messages = [bytes([i]) * 20 for i in range(12)]
        assert pool.sign_many(keypair, messages) == [keypair.sign(m) for m in messages]

    def test_decrypt_many(self, pool, keypair):
        drbg = HmacDrbg(b"pool-test", b"enc")
        secrets = [bytes([i]) * 16 for i in range(10)]
        blobs = [keypair.public_key.encrypt(s, drbg) for s in secrets]
        assert pool.decrypt_many(keypair, blobs) == secrets

    def test_small_batches_run_inline(self, pool):
        key, plaintexts, nonces = _batch(3)
        before = pool.stats.batches_inline
        assert pool.encrypt_many(key, plaintexts, nonces) == \
            key.encrypt_many(plaintexts, nonces)
        assert pool.stats.batches_inline == before + 1


class TestValidation:
    def test_duplicate_nonce_rejected_before_chunking(self, pool):
        # The duplicates land in *different* chunks: a per-chunk check
        # would miss them, the whole-batch check must not.
        key, plaintexts, nonces = _batch(30)
        nonces[1] = nonces[-1]
        with pytest.raises(ValueError, match="duplicate nonce"):
            pool.encrypt_many(key, plaintexts, nonces)

    def test_length_mismatch_rejected(self, pool):
        key, plaintexts, nonces = _batch(20)
        with pytest.raises(ValueError, match="plaintexts"):
            pool.encrypt_many(key, plaintexts, nonces[:-1])

    def test_negative_nonce_rejected(self, pool):
        key, plaintexts, nonces = _batch(20)
        nonces[5] = -1
        with pytest.raises(ValueError, match="non-negative"):
            pool.encrypt_many(key, plaintexts, nonces)

    def test_min_chunk_validated(self):
        with pytest.raises(ValueError):
            CryptoPool(workers=1, min_chunk=0)


class TestCounterMerge:
    def test_offloaded_sealing_counts_match_inprocess(self, pool):
        """The regression the snapshot-and-merge protocol exists for:
        sealed-packet/byte counts must be identical whether the work
        ran in-process or on pool workers."""
        deployment = Deployment(seed=23)
        deployment.add_free_channel("merge", regions=["CH"])
        key = deployment.servers["merge"].schedule.current_key(1.0)
        frames = [(i, bytes([i % 251]) * 200) for i in range(40)]

        before = dataplane_counters.snapshot()
        inline = encrypt_packets(key, "merge", frames)
        mid = dataplane_counters.snapshot()
        pooled = encrypt_packets(key, "merge", frames, pool=pool)
        after = dataplane_counters.snapshot()

        assert pooled == inline
        inline_delta = {k: mid[k] - before[k] for k in mid}
        pooled_delta = {k: after[k] - mid[k] for k in after}
        assert pooled_delta == inline_delta
        assert pooled_delta["packets_sealed"] == 40
        assert pooled_delta["bytes_sealed"] == 40 * 200
        assert pooled_delta["keystream_blocks"] > 0

    def test_offloaded_signing_counts_match_inprocess(self, pool, keypair):
        messages = [bytes([i]) * 32 for i in range(12)]
        before = hotpath_counters.snapshot()
        for m in messages:
            keypair.sign(m)
        mid = hotpath_counters.snapshot()
        pool.sign_many(keypair, messages)
        after = hotpath_counters.snapshot()
        inline_delta = {k: mid[k] - before[k] for k in mid}
        pooled_delta = {k: after[k] - mid[k] for k in after}
        assert pooled_delta == inline_delta
        assert pooled_delta["rsa_private_ops"] == 12

    def test_merge_rejects_unknown_counter(self):
        with pytest.raises(ValueError, match="unknown"):
            dataplane_counters.merge({"not_a_counter": 1})
        with pytest.raises(ValueError, match="unknown"):
            hotpath_counters.merge({"bogus": 2})

    def test_merge_adds(self):
        before = dataplane_counters.packets_sealed
        dataplane_counters.merge({"packets_sealed": 5})
        assert dataplane_counters.packets_sealed == before + 5
        dataplane_counters.merge({"packets_sealed": -5})
        assert dataplane_counters.packets_sealed == before


class TestInlineFallback:
    def test_single_worker_never_forks(self):
        pool = CryptoPool(workers=1)
        assert not pool.pooled
        key, plaintexts, nonces = _batch(40)
        assert pool.encrypt_many(key, plaintexts, nonces) == \
            key.encrypt_many(plaintexts, nonces)
        assert pool.stats.batches_offloaded == 0
        assert pool.stats.items_inline == 40

    def test_closed_pool_falls_back(self):
        pool = CryptoPool(workers=2, min_chunk=2)
        pool.close()
        assert not pool.pooled
        key, plaintexts, nonces = _batch(20)
        assert pool.encrypt_many(key, plaintexts, nonces) == \
            key.encrypt_many(plaintexts, nonces)


class TestEnableMulticore:
    def test_enable_multicore_registers_metrics(self, pool):
        deployment = Deployment(seed=5)
        deployment.enable_multicore(pool=pool)
        assert deployment.crypto_pool is pool
        assert "multicore" in deployment.metrics.sources()
        snap = deployment.metrics.snapshot()["multicore"]
        assert snap["workers"] == 2
