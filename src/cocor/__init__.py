"""Contrastive pretraining with composite-augmentation consistency and a
learned monotonic deviation predictor, trained by alternating bi-level
updates. The modules are the API (``cocor.bilevel``, ``cocor.harness``, ...);
the package itself binds no names."""
