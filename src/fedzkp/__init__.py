"""Federated model ownership verification.

Watermark-side: clients embed sign patterns into a scaling layer of a
shared model during federated training, and an aggregated hash binds the
pattern set to per-client noisy-linear (xLPN) credentials.  Proof-side: a
multi-round zero-knowledge protocol lets a client prove knowledge of its
credential secret without revealing it.

Subpackage map:

    gf2          dense GF(2) vectors/matrices, solving, permutations
    lpn          noisy linear credential instances
    commitments  hash-based commitments used inside the proof
    sigma        the 3-message proof round, cheating prover, simulator, extractor
    watermark    aggregation, hashing, client and validity checks
    bounds       exact combinatorial security estimates
    model        toy federated network with embedded sign watermarks
    attacks      removal and forgery attacks plus the security game
    storage      binary and JSON file formats for every artifact
    protocol     wire messages and verifier/prover session state machines
    costs        memory and bandwidth accounting
    bench        timing harness for the scaling acceptance checks
    cli          command line entry points
"""

__version__ = "0.1.0"
