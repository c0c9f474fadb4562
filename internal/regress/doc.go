// Package regress implements, from scratch on the standard library,
// the regression algorithms the study compares (Section 3): ordinary
// least squares Linear Regression, Lasso (exact feature-sign search
// behind a KKT certificate, with covariance-update coordinate descent
// as the fallback), ε-SVR with an RBF kernel (SMO solver), Gradient
// Boosting over CART regression trees with LAD loss, and the two naive
// baselines — Last Value and Moving Average. Default hyper-parameters
// are the paper's grid-search winners (Section 4.2, reproduced by the
// tuning experiment in [vup/internal/experiments] via [GridSearch]).
//
// [Algorithms] returns the six models of the Figure 5 comparison in
// presentation order. [vup/internal/core] consumes them through the
// [Regressor] interface, one fresh model per training window, and
// times its forecast fits and predictions with trace spans; this
// package reads no clock. Fitting is deterministic —
// models that need randomness (the related-work Random Forest) carry
// an explicit seed — which is what lets the parallel sweeps of
// [vup/internal/parallel] reproduce sequential results exactly.
//
// Linear Regression solves a full-rank design by Householder QR. A
// training window shorter than about six months misses at least one
// season, so its one-hot season context column is all zero; QR cannot
// solve such a design, and LR solves the λ=1e-8 ridge normal equations
// by Cholesky instead. Sliding windows of the paper's and the server's
// length therefore always take the ridge path, and QR runs only for
// longer full-rank windows such as late expanding ones.
package regress
