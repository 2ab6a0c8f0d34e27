package main

import (
	"context"
	"fmt"
	"path/filepath"

	"rasengan"
	"rasengan/internal/core"
	"rasengan/internal/problems"
	"rasengan/internal/service"
)

// regenerateRefs recomputes refs.json: every payload a run can produce,
// solved through the library (the service's payload is the library's,
// byte for byte). Run it only when a change to the solver is meant to
// change results, and say so in the change.
func regenerateRefs(root string) error {
	rf := &refFile{Workloads: map[string]map[string]string{}}
	insts, err := loadInstances(root, exactMix.labels)
	if err != nil {
		return err
	}
	refs := map[string]string{}
	for _, req := range solveRequests(exactMix, insts, 1) {
		res, err := rasengan.SolveContext(context.Background(), req.inst.p, req.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", req.key, err)
		}
		payload, err := service.MarshalResultPayload(req.inst.p, res)
		if err != nil {
			return err
		}
		refs[req.key] = payloadHash(payload)
	}
	rf.Workloads[exactMix.name] = refs

	hot, err := hotRequests()
	if err != nil {
		return err
	}
	colds, err := loadInstances(root, coldLabels)
	if err != nil {
		return err
	}
	reqs := hot
	for k := 0; k < coldRefs; k++ {
		reqs = append(reqs, coldRequest(colds, k))
	}
	refs = map[string]string{}
	for _, req := range reqs {
		h, err := servePayloadHash(req)
		if err != nil {
			return fmt.Errorf("%s: %w", req.key, err)
		}
		refs[req.key] = h
	}
	rf.Workloads["serve-mixed"] = refs
	return writeRefs(filepath.Join(root, "perfbench", "refs.json"), rf)
}

// servePayloadHash solves a serve request the way a backend does: build
// the problem from the wire spec, solve with the request's seed and
// otherwise default options.
func servePayloadHash(req serveReq) (string, error) {
	spec, err := problems.ParseSpec(req.spec)
	if err != nil {
		return "", err
	}
	p, err := spec.Build()
	if err != nil {
		return "", err
	}
	res, err := rasengan.SolveContext(context.Background(), p, core.Options{Seed: req.seed})
	if err != nil {
		return "", err
	}
	payload, err := service.MarshalResultPayload(p, res)
	if err != nil {
		return "", err
	}
	return payloadHash(payload), nil
}
