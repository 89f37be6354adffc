package rpcserve

import "time"

// Limits shared by every HTTP listener the repo runs (the chain RPC
// servers, the serving API, the coordinator's progress endpoint): a client
// that trickles or bloats its request header or body cannot pin a
// connection or its memory.
const (
	// ReadHeaderTimeout bounds how long a request's headers may take to
	// arrive.
	ReadHeaderTimeout = 10 * time.Second
	// MaxHeaderBytes caps a request's header size.
	MaxHeaderBytes = 64 << 10
	// MaxBodyBytes caps a request body read by a handler that decodes one
	// (the EOS RPC's JSON requests are a few dozen bytes).
	MaxBodyBytes = 64 << 10
)
