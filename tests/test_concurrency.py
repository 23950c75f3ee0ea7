"""Memo caches under concurrent access: single canonical value per key."""

import sys
import threading

from conftest import term_recursion
from tlmarkov import ortho as ortho_module
from tlmarkov.diagrams import RestrictedSequence, enumerate_diagrams
from tlmarkov.ortho import orthogonal_vector
from tlmarkov.qpoly import chebyshev


def hammer(target, thread_count=8):
    results = []
    barrier = threading.Barrier(thread_count)

    def worker():
        barrier.wait()
        results.append(target())

    threads = [threading.Thread(target=worker) for _ in range(thread_count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def test_chebyshev_cache_yields_one_canonical_value():
    results = hammer(lambda: chebyshev(75))
    assert all(r is results[0] for r in results)
    assert results[0].degree == 75


def test_orthogonal_vector_memo_yields_one_canonical_value():
    s = RestrictedSequence.parse("4,4,3,2,2,1,1")
    results = hammer(lambda: orthogonal_vector(s))
    assert all(r is results[0] for r in results)
    assert results[0].coeffs[s] is not None


def test_cold_vector_memo_yields_one_canonical_value_per_key():
    """Eight threads ask an empty memo for different size-6 vectors at once;
    every key ends up with one object, equal to the term recursion."""
    sequences = enumerate_diagrams(6)[::16][:8]
    results = {}
    barrier = threading.Barrier(len(sequences), timeout=60)

    def worker(s):
        barrier.wait()
        results[s] = orthogonal_vector(s)

    saved = dict(ortho_module._VECTOR_CACHE)
    interval = sys.getswitchinterval()
    ortho_module._VECTOR_CACHE.clear()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in sequences]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        built = dict(ortho_module._VECTOR_CACHE)
        again = {s: orthogonal_vector(s) for s in sequences}
    finally:
        sys.setswitchinterval(interval)
        ortho_module._VECTOR_CACHE.clear()
        ortho_module._VECTOR_CACHE.update(saved)
    assert len(results) == len(sequences)
    memo = {}
    for s in sequences:
        assert results[s] is built[s.entries] is again[s]
    for entries, vec in built.items():
        assert vec == term_recursion(RestrictedSequence(entries), memo), entries
