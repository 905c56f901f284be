// Package serve is the completion-as-a-service plane: it loads finished
// solver checkpoints (the solver.ckpt images core writes) into a model
// registry and answers single and batch entry-reconstruction queries
// x̂(i_1,…,i_N) = Σ_r Π_n A(n)[i_n,r] (Eq. 3) over a length-prefixed binary
// protocol that reuses the transport framing, plus an HTTP/JSON admin plane
// for loading, swapping, and dropping models at runtime.
//
// The serving model is deliberately simple: a model is an immutable set of
// factor matrices. Updates never mutate a served model — the admin API and
// the online-refresh loop build a replacement and swap the registry pointer
// atomically, so every in-flight batch is answered wholly by one model
// generation, never a torn mix. Factor rows are read where the generation
// holds them — there is no cache between a request and the factors — by one
// kernel, Model.PredictBatch, whose values are bit-identical to
// sptensor.Kruskal.At.
package serve
