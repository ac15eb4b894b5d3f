import numpy as np
import pytest

from securepim.crypto import KeyStore, OtpContext

TEST_KEY = "000102030405060708090a0b0c0d0e0f"


@pytest.fixture
def ks():
    store = KeyStore()
    store.register("k", TEST_KEY)
    return store


def ctx(version=1, key_id="k"):
    return OtpContext(key_id, version)


def rand_words(rng, shape):
    return rng.integers(0, 1 << 32, size=shape, dtype=np.uint32)
