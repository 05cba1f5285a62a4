package hilight_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"hilight"
	"hilight/internal/session"
)

// recompileDelta is one edit TestRecompileDigests recompiles every
// parent with, built from the parent it edits.
type recompileDelta struct {
	name  string
	delta func(parent *hilight.Result) hilight.Delta
}

// deadVertex kills the middle vertex of the first braid of the parent's
// layer li.
func deadVertex(parent *hilight.Result, li int) hilight.Delta {
	p := parent.Schedule.Layers[li][0].Path
	return hilight.Delta{Defects: &hilight.DefectMap{Vertices: []int{p[len(p)/2]}}}
}

// recompileDeltas are the seven deltas: none, an append, an insert and a
// removal mid-circuit, an insert at gate 0, and a dead vertex on a braid
// of the middle layer and of layer 0.
var recompileDeltas = []recompileDelta{
	{"none", func(*hilight.Result) hilight.Delta { return hilight.Delta{} }},
	{"append", func(p *hilight.Result) hilight.Delta {
		n := p.Input.NumQubits
		return hilight.Delta{Edits: []hilight.Edit{{Op: hilight.OpAppend, Gate: hilight.Gate{Kind: hilight.CX, Q0: 0, Q1: n - 1}}}}
	}},
	{"insert-mid", func(p *hilight.Result) hilight.Delta {
		n := p.Input.NumQubits
		return hilight.Delta{Edits: []hilight.Edit{{Op: hilight.OpInsert, Index: len(p.Input.Gates) / 2, Gate: hilight.Gate{Kind: hilight.CX, Q0: 0, Q1: n - 1}}}}
	}},
	{"remove-mid", func(p *hilight.Result) hilight.Delta {
		return hilight.Delta{Edits: []hilight.Edit{{Op: hilight.OpRemove, Index: len(p.Input.Gates) / 2}}}
	}},
	{"insert-head", func(p *hilight.Result) hilight.Delta {
		return hilight.Delta{Edits: []hilight.Edit{{Op: hilight.OpInsert, Index: 0, Gate: hilight.Gate{Kind: hilight.CX, Q0: 0, Q1: 1}}}}
	}},
	{"dead-mid", func(p *hilight.Result) hilight.Delta { return deadVertex(p, len(p.Schedule.Layers)/2) }},
	{"dead-head", func(p *hilight.Result) hilight.Delta { return deadVertex(p, 0) }},
}

// TestRecompileDigests pins every warm recompile: Table 1 circuits under
// five methods, each recompiled with the seven recompileDeltas through
// Recompile (from the parent Result) and through RecompileFrom (from the
// parent's input circuit and schedule, as the service recompiles). Each
// row holds the seven recompiles' WarmCycles and latencies and the
// SHA-256 of their schedules' binary encodings, in delta order. The rows
// cover full, partial and cold replays; a change to which parent layers
// replay, or to the suffix routed after them, changes a row.
func TestRecompileDigests(t *testing.T) {
	want := []struct {
		circuit, method, via string
		warm, latency        [7]int
		digest               string
	}{
		{"rd32_270", "hilight", "Recompile", [7]int{18, 18, 2, 2, 0, 0, 0}, [7]int{18, 19, 20, 18, 19, 19, 19}, "6f70e708fba91ec344ae7c077bfed51ef072ad6bbaf502f84e8916fd311d13fb"},
		{"rd32_270", "hilight", "RecompileFrom", [7]int{18, 14, 2, 2, 0, 0, 0}, [7]int{18, 18, 20, 18, 19, 19, 19}, "802a9e8d0293463f2bf116ac325cf12f7021648a72143eb9132d447092ba432c"},
		{"rd32_270", "hilight-map", "Recompile", [7]int{18, 18, 2, 2, 0, 0, 0}, [7]int{18, 19, 20, 18, 19, 19, 19}, "e5aafe90d877b43ea6ebea9b45fb16fc23749416733637d2d3e3fe4a3f4e4396"},
		{"rd32_270", "hilight-map", "RecompileFrom", [7]int{18, 18, 2, 2, 0, 0, 0}, [7]int{18, 19, 20, 18, 19, 19, 19}, "e5aafe90d877b43ea6ebea9b45fb16fc23749416733637d2d3e3fe4a3f4e4396"},
		{"rd32_270", "hilight-map-parallel", "Recompile", [7]int{18, 18, 2, 2, 0, 0, 0}, [7]int{18, 19, 20, 18, 19, 18, 18}, "e92f4d67de8f5f13a6c928b709124f6cc77a7c9b1631b2dad7551912a73ac5a0"},
		{"rd32_270", "hilight-map-parallel", "RecompileFrom", [7]int{18, 18, 2, 2, 0, 0, 0}, [7]int{18, 19, 20, 18, 19, 18, 18}, "e92f4d67de8f5f13a6c928b709124f6cc77a7c9b1631b2dad7551912a73ac5a0"},
		{"rd32_270", "hilight-cp", "Recompile", [7]int{18, 18, 2, 2, 0, 0, 0}, [7]int{18, 19, 20, 18, 19, 19, 19}, "e5aafe90d877b43ea6ebea9b45fb16fc23749416733637d2d3e3fe4a3f4e4396"},
		{"rd32_270", "hilight-cp", "RecompileFrom", [7]int{18, 18, 2, 2, 0, 0, 0}, [7]int{18, 19, 20, 18, 19, 19, 19}, "e5aafe90d877b43ea6ebea9b45fb16fc23749416733637d2d3e3fe4a3f4e4396"},
		{"rd32_270", "autobraid-sp", "Recompile", [7]int{18, 18, 2, 2, 0, 0, 0}, [7]int{18, 19, 20, 18, 19, 18, 18}, "e4eb6e3503e96a4a3f07ad8800239a7a41b7cdc1feccfc642e21ed95fc545a6e"},
		{"rd32_270", "autobraid-sp", "RecompileFrom", [7]int{18, 18, 2, 2, 0, 0, 0}, [7]int{18, 19, 20, 18, 19, 18, 18}, "e4eb6e3503e96a4a3f07ad8800239a7a41b7cdc1feccfc642e21ed95fc545a6e"},
		{"4gt11_82", "hilight", "Recompile", [7]int{9, 9, 0, 5, 0, 1, 0}, [7]int{9, 10, 10, 9, 9, 9, 9}, "637159e23e619a28611b6d0618ff9526b93e62dc927b3c08adc3bda86cc550f8"},
		{"4gt11_82", "hilight", "RecompileFrom", [7]int{9, 8, 0, 5, 0, 1, 0}, [7]int{9, 9, 10, 9, 9, 9, 9}, "5ce6428ecb0f7e2b9661a936f2bcb5739d93fed849aaf508c2b36bf878edcc9e"},
		{"4gt11_82", "hilight-map", "Recompile", [7]int{9, 9, 4, 4, 0, 4, 0}, [7]int{9, 10, 10, 9, 9, 9, 9}, "1b3d9f3ba6985c4f6204cc2ecdfc9950e687d264ee52f60147364c014aa2cdcb"},
		{"4gt11_82", "hilight-map", "RecompileFrom", [7]int{9, 9, 4, 4, 0, 4, 0}, [7]int{9, 10, 10, 9, 9, 9, 9}, "1b3d9f3ba6985c4f6204cc2ecdfc9950e687d264ee52f60147364c014aa2cdcb"},
		{"4gt11_82", "hilight-map-parallel", "Recompile", [7]int{9, 9, 4, 4, 0, 4, 0}, [7]int{9, 10, 10, 9, 9, 9, 9}, "de9e43fef9aeaf4679bb3858366c09286b1cd04d871ec0e860e599b4ce265c14"},
		{"4gt11_82", "hilight-map-parallel", "RecompileFrom", [7]int{9, 9, 4, 4, 0, 4, 0}, [7]int{9, 10, 10, 9, 9, 9, 9}, "de9e43fef9aeaf4679bb3858366c09286b1cd04d871ec0e860e599b4ce265c14"},
		{"4gt11_82", "hilight-cp", "Recompile", [7]int{9, 9, 4, 4, 0, 4, 0}, [7]int{9, 10, 10, 9, 9, 9, 9}, "1b3d9f3ba6985c4f6204cc2ecdfc9950e687d264ee52f60147364c014aa2cdcb"},
		{"4gt11_82", "hilight-cp", "RecompileFrom", [7]int{9, 9, 4, 4, 0, 4, 0}, [7]int{9, 10, 10, 9, 9, 9, 9}, "1b3d9f3ba6985c4f6204cc2ecdfc9950e687d264ee52f60147364c014aa2cdcb"},
		{"4gt11_82", "autobraid-sp", "Recompile", [7]int{9, 9, 4, 4, 0, 4, 0}, [7]int{9, 10, 10, 9, 9, 9, 9}, "166d6a3b69ee8daf84535867a5b13d41da141468fec5d96b6ea493a0d7306a17"},
		{"4gt11_82", "autobraid-sp", "RecompileFrom", [7]int{9, 9, 4, 4, 0, 4, 0}, [7]int{9, 10, 10, 9, 9, 9, 9}, "166d6a3b69ee8daf84535867a5b13d41da141468fec5d96b6ea493a0d7306a17"},
		{"QFT-10", "hilight", "Recompile", [7]int{18, 18, 12, 12, 0, 2, 0}, [7]int{18, 19, 19, 18, 19, 20, 18}, "b61e8a4b487bca72dca75d4df788cd36cd1676f55309cb0ba2619dcfe66394a9"},
		{"QFT-10", "hilight", "RecompileFrom", [7]int{18, 18, 12, 12, 0, 2, 0}, [7]int{18, 19, 19, 18, 19, 20, 18}, "b61e8a4b487bca72dca75d4df788cd36cd1676f55309cb0ba2619dcfe66394a9"},
		{"QFT-10", "hilight-map", "Recompile", [7]int{18, 18, 6, 6, 0, 2, 0}, [7]int{18, 19, 19, 18, 19, 20, 18}, "e6e9f71512d7f24c857e56a4875d43ec8cbb56a845239a3ae4092857bfb50bed"},
		{"QFT-10", "hilight-map", "RecompileFrom", [7]int{18, 18, 6, 6, 0, 2, 0}, [7]int{18, 19, 19, 18, 19, 20, 18}, "e6e9f71512d7f24c857e56a4875d43ec8cbb56a845239a3ae4092857bfb50bed"},
		{"QFT-10", "hilight-map-parallel", "Recompile", [7]int{18, 18, 6, 6, 0, 2, 0}, [7]int{18, 19, 19, 18, 19, 20, 18}, "d92fa64d4912b5502ddf5bfad35c62f3480ff4de29bca7c6d1c90a860e5ffe40"},
		{"QFT-10", "hilight-map-parallel", "RecompileFrom", [7]int{18, 18, 6, 6, 0, 2, 0}, [7]int{18, 19, 19, 18, 19, 20, 18}, "d92fa64d4912b5502ddf5bfad35c62f3480ff4de29bca7c6d1c90a860e5ffe40"},
		{"QFT-10", "hilight-cp", "Recompile", [7]int{18, 18, 6, 6, 0, 2, 0}, [7]int{18, 19, 19, 18, 19, 20, 18}, "e6e9f71512d7f24c857e56a4875d43ec8cbb56a845239a3ae4092857bfb50bed"},
		{"QFT-10", "hilight-cp", "RecompileFrom", [7]int{18, 18, 6, 6, 0, 2, 0}, [7]int{18, 19, 19, 18, 19, 20, 18}, "e6e9f71512d7f24c857e56a4875d43ec8cbb56a845239a3ae4092857bfb50bed"},
		{"QFT-10", "autobraid-sp", "Recompile", [7]int{20, 20, 6, 6, 0, 2, 0}, [7]int{20, 21, 21, 20, 21, 21, 21}, "201e90ee293703c56a06f765b895f5ac7b933ab13856f9ca29e50ab1926cb234"},
		{"QFT-10", "autobraid-sp", "RecompileFrom", [7]int{20, 20, 6, 6, 0, 2, 0}, [7]int{20, 21, 21, 20, 21, 21, 21}, "201e90ee293703c56a06f765b895f5ac7b933ab13856f9ca29e50ab1926cb234"},
		{"Ising-13", "hilight", "Recompile", [7]int{20, 20, 9, 9, 0, 2, 0}, [7]int{20, 21, 21, 20, 21, 20, 20}, "85c8d96c5e65d78bc18414e7f38411beb8839e9764c8e4180802d60eb2faeb3c"},
		{"Ising-13", "hilight", "RecompileFrom", [7]int{20, 20, 9, 9, 0, 2, 0}, [7]int{20, 21, 21, 20, 21, 20, 20}, "85c8d96c5e65d78bc18414e7f38411beb8839e9764c8e4180802d60eb2faeb3c"},
		{"Ising-13", "hilight-map", "Recompile", [7]int{20, 20, 8, 8, 0, 2, 0}, [7]int{20, 21, 21, 20, 21, 20, 20}, "0b7a24cfc45585c6a35c001e48ac99cebb75fc3a57fed24eaab4a8ec327bdd67"},
		{"Ising-13", "hilight-map", "RecompileFrom", [7]int{20, 20, 8, 8, 0, 2, 0}, [7]int{20, 21, 21, 20, 21, 20, 20}, "0b7a24cfc45585c6a35c001e48ac99cebb75fc3a57fed24eaab4a8ec327bdd67"},
		{"Ising-13", "hilight-map-parallel", "Recompile", [7]int{20, 20, 8, 8, 0, 2, 0}, [7]int{20, 21, 21, 20, 21, 20, 20}, "a1317b350d077920144dd6873bc7e68ba9ec4cc25d6c9f1383488e7f2dde3f05"},
		{"Ising-13", "hilight-map-parallel", "RecompileFrom", [7]int{20, 20, 8, 8, 0, 2, 0}, [7]int{20, 21, 21, 20, 21, 20, 20}, "a1317b350d077920144dd6873bc7e68ba9ec4cc25d6c9f1383488e7f2dde3f05"},
		{"Ising-13", "hilight-cp", "Recompile", [7]int{20, 20, 8, 8, 0, 2, 0}, [7]int{20, 21, 21, 20, 21, 20, 20}, "b3481ef5eaaefdb129bb1ee2b2cdb17c73b915c83b17bffb63e7f3f698edb171"},
		{"Ising-13", "hilight-cp", "RecompileFrom", [7]int{20, 20, 8, 8, 0, 2, 0}, [7]int{20, 21, 21, 20, 21, 20, 20}, "b3481ef5eaaefdb129bb1ee2b2cdb17c73b915c83b17bffb63e7f3f698edb171"},
		{"Ising-13", "autobraid-sp", "Recompile", [7]int{30, 30, 12, 12, 0, 2, 0}, [7]int{30, 31, 30, 30, 30, 30, 30}, "be51a55454419da3371ed1907df3339aec102d7bb1eb0248cdf80c2d1a7a3c5e"},
		{"Ising-13", "autobraid-sp", "RecompileFrom", [7]int{30, 30, 12, 12, 0, 2, 0}, [7]int{30, 31, 30, 30, 30, 30, 30}, "be51a55454419da3371ed1907df3339aec102d7bb1eb0248cdf80c2d1a7a3c5e"},
		{"alu-v0_26", "hilight", "Recompile", [7]int{20, 20, 11, 11, 1, 4, 0}, [7]int{20, 21, 21, 19, 21, 20, 20}, "d83ebb082eafa6431b40af5ad6974ddf36354522123a21190f05dc8ebbe9e938"},
		{"alu-v0_26", "hilight", "RecompileFrom", [7]int{20, 20, 11, 11, 1, 4, 0}, [7]int{20, 21, 21, 19, 21, 20, 20}, "d83ebb082eafa6431b40af5ad6974ddf36354522123a21190f05dc8ebbe9e938"},
		{"alu-v0_26", "hilight-map", "Recompile", [7]int{20, 20, 11, 11, 1, 5, 0}, [7]int{20, 21, 21, 19, 21, 20, 20}, "f20f1eaa5b22bb7ff21fde9456d97743c8d1d960941fbd0a4c059b6e71165f46"},
		{"alu-v0_26", "hilight-map", "RecompileFrom", [7]int{20, 20, 11, 11, 1, 5, 0}, [7]int{20, 21, 21, 19, 21, 20, 20}, "f20f1eaa5b22bb7ff21fde9456d97743c8d1d960941fbd0a4c059b6e71165f46"},
		{"alu-v0_26", "hilight-map-parallel", "Recompile", [7]int{20, 20, 11, 11, 1, 5, 0}, [7]int{20, 21, 21, 19, 21, 20, 20}, "ed870905914705d8a2684e7088ac967bd8ca5f220be486aac23594658e948153"},
		{"alu-v0_26", "hilight-map-parallel", "RecompileFrom", [7]int{20, 20, 11, 11, 1, 5, 0}, [7]int{20, 21, 21, 19, 21, 20, 20}, "ed870905914705d8a2684e7088ac967bd8ca5f220be486aac23594658e948153"},
		{"alu-v0_26", "hilight-cp", "Recompile", [7]int{20, 20, 11, 11, 1, 5, 0}, [7]int{20, 21, 21, 19, 21, 20, 20}, "f20f1eaa5b22bb7ff21fde9456d97743c8d1d960941fbd0a4c059b6e71165f46"},
		{"alu-v0_26", "hilight-cp", "RecompileFrom", [7]int{20, 20, 11, 11, 1, 5, 0}, [7]int{20, 21, 21, 19, 21, 20, 20}, "f20f1eaa5b22bb7ff21fde9456d97743c8d1d960941fbd0a4c059b6e71165f46"},
		{"alu-v0_26", "autobraid-sp", "Recompile", [7]int{20, 20, 11, 11, 1, 2, 0}, [7]int{20, 21, 21, 19, 21, 20, 20}, "a352f7b0812dde8e6f62ae13ec766a33cdf0b428175896100571c380355e5fb3"},
		{"alu-v0_26", "autobraid-sp", "RecompileFrom", [7]int{20, 20, 11, 11, 1, 2, 0}, [7]int{20, 21, 21, 19, 21, 20, 20}, "a352f7b0812dde8e6f62ae13ec766a33cdf0b428175896100571c380355e5fb3"},
		{"QFT-16", "hilight", "Recompile", [7]int{39, 39, 24, 19, 0, 4, 0}, [7]int{39, 40, 40, 39, 40, 40, 39}, "7010d9a0d3c5d9fd897a2c9e113762b7182c784da0e68cd046ec6ce936b226ec"},
		{"QFT-16", "hilight", "RecompileFrom", [7]int{39, 39, 24, 19, 0, 4, 0}, [7]int{39, 40, 40, 39, 40, 40, 39}, "7010d9a0d3c5d9fd897a2c9e113762b7182c784da0e68cd046ec6ce936b226ec"},
		{"QFT-16", "hilight-map", "Recompile", [7]int{38, 38, 11, 11, 0, 1, 0}, [7]int{38, 39, 38, 38, 39, 46, 41}, "846d784fd28ad22a84574579cd458395fdb3c4dc17155e58efc472e3246831e6"},
		{"QFT-16", "hilight-map", "RecompileFrom", [7]int{38, 38, 11, 11, 0, 1, 0}, [7]int{38, 39, 38, 38, 39, 46, 41}, "846d784fd28ad22a84574579cd458395fdb3c4dc17155e58efc472e3246831e6"},
		{"QFT-16", "hilight-map-parallel", "Recompile", [7]int{34, 34, 10, 10, 0, 2, 0}, [7]int{34, 35, 35, 34, 35, 38, 39}, "c3d9d5a3e836defcdfdfe0ebb5e1590aa30e692f481fd8df6d9931d5d8b94ec2"},
		{"QFT-16", "hilight-map-parallel", "RecompileFrom", [7]int{34, 34, 10, 10, 0, 2, 0}, [7]int{34, 35, 35, 34, 35, 38, 39}, "c3d9d5a3e836defcdfdfe0ebb5e1590aa30e692f481fd8df6d9931d5d8b94ec2"},
		{"QFT-16", "hilight-cp", "Recompile", [7]int{38, 38, 11, 11, 0, 2, 0}, [7]int{38, 39, 38, 38, 39, 42, 41}, "a04118f5a95b65f4997418ac166113d98d280b65a83b3f1eed69c029fd3a5bd3"},
		{"QFT-16", "hilight-cp", "RecompileFrom", [7]int{38, 38, 11, 11, 0, 2, 0}, [7]int{38, 39, 38, 38, 39, 42, 41}, "a04118f5a95b65f4997418ac166113d98d280b65a83b3f1eed69c029fd3a5bd3"},
		{"QFT-16", "autobraid-sp", "Recompile", [7]int{45, 45, 16, 16, 0, 6, 0}, [7]int{45, 46, 45, 45, 46, 46, 46}, "1d4c49b86e8e5084b1fac0db76b49199385acc1e409e60e5a3c9dace04a2f26d"},
		{"QFT-16", "autobraid-sp", "RecompileFrom", [7]int{45, 45, 16, 16, 0, 6, 0}, [7]int{45, 46, 45, 45, 46, 46, 46}, "1d4c49b86e8e5084b1fac0db76b49199385acc1e409e60e5a3c9dace04a2f26d"},
		{"CC-18", "hilight", "Recompile", [7]int{17, 17, 1, 0, 0, 2, 0}, [7]int{17, 18, 18, 16, 17, 17, 17}, "9417dd323ae8101d1abc16f6abff9bacfa7f245dfb750899709b06764bc53ec3"},
		{"CC-18", "hilight", "RecompileFrom", [7]int{17, 17, 1, 0, 0, 2, 0}, [7]int{17, 18, 18, 16, 17, 17, 17}, "9417dd323ae8101d1abc16f6abff9bacfa7f245dfb750899709b06764bc53ec3"},
		{"CC-18", "hilight-map", "Recompile", [7]int{17, 17, 1, 0, 0, 2, 0}, [7]int{17, 18, 18, 16, 18, 17, 17}, "9c61ec0058e29d807dc9a54a9596459d8e33885e071f7e3d1ea0caabea517981"},
		{"CC-18", "hilight-map", "RecompileFrom", [7]int{17, 17, 1, 0, 0, 2, 0}, [7]int{17, 18, 18, 16, 18, 17, 17}, "9c61ec0058e29d807dc9a54a9596459d8e33885e071f7e3d1ea0caabea517981"},
		{"CC-18", "hilight-map-parallel", "Recompile", [7]int{17, 17, 1, 0, 0, 2, 0}, [7]int{17, 18, 18, 16, 18, 17, 17}, "9c61ec0058e29d807dc9a54a9596459d8e33885e071f7e3d1ea0caabea517981"},
		{"CC-18", "hilight-map-parallel", "RecompileFrom", [7]int{17, 17, 1, 0, 0, 2, 0}, [7]int{17, 18, 18, 16, 18, 17, 17}, "9c61ec0058e29d807dc9a54a9596459d8e33885e071f7e3d1ea0caabea517981"},
		{"CC-18", "hilight-cp", "Recompile", [7]int{17, 17, 1, 0, 0, 2, 0}, [7]int{17, 18, 18, 16, 18, 17, 17}, "9c61ec0058e29d807dc9a54a9596459d8e33885e071f7e3d1ea0caabea517981"},
		{"CC-18", "hilight-cp", "RecompileFrom", [7]int{17, 17, 1, 0, 0, 2, 0}, [7]int{17, 18, 18, 16, 18, 17, 17}, "9c61ec0058e29d807dc9a54a9596459d8e33885e071f7e3d1ea0caabea517981"},
		{"CC-18", "autobraid-sp", "Recompile", [7]int{17, 17, 1, 0, 0, 3, 0}, [7]int{17, 18, 18, 16, 18, 17, 17}, "458e639effc4484328accea07b5589227a2cfc21fae094f83301e24b1544c88b"},
		{"CC-18", "autobraid-sp", "RecompileFrom", [7]int{17, 17, 1, 0, 0, 3, 0}, [7]int{17, 18, 18, 16, 18, 17, 17}, "458e639effc4484328accea07b5589227a2cfc21fae094f83301e24b1544c88b"},
		{"sqrt8_260", "hilight", "Recompile", [7]int{396, 396, 210, 207, 0, 0, 0}, [7]int{396, 397, 397, 396, 396, 398, 402}, "6c9b523db64ad05a0e7fc2fc0e15b0f1107623a5925dde30cc79bf660ec81b3b"},
		{"sqrt8_260", "hilight", "RecompileFrom", [7]int{396, 396, 210, 207, 0, 0, 0}, [7]int{396, 397, 397, 396, 396, 398, 402}, "6c9b523db64ad05a0e7fc2fc0e15b0f1107623a5925dde30cc79bf660ec81b3b"},
		{"sqrt8_260", "hilight-map", "Recompile", [7]int{398, 398, 203, 203, 0, 0, 0}, [7]int{398, 399, 399, 398, 398, 408, 405}, "a8bf6c2ff1146ba070bcb2215553fd234c1fbdf4f4e1fa2eec64b26748f880c8"},
		{"sqrt8_260", "hilight-map", "RecompileFrom", [7]int{398, 398, 203, 203, 0, 0, 0}, [7]int{398, 399, 399, 398, 398, 408, 405}, "a8bf6c2ff1146ba070bcb2215553fd234c1fbdf4f4e1fa2eec64b26748f880c8"},
		{"sqrt8_260", "hilight-map-parallel", "Recompile", [7]int{400, 400, 204, 204, 0, 0, 0}, [7]int{400, 401, 401, 400, 400, 403, 406}, "8933c8fa2b43934e3c1f7c2be30a14c9976e10389c0a025452d63e22c3b8e162"},
		{"sqrt8_260", "hilight-map-parallel", "RecompileFrom", [7]int{400, 400, 204, 204, 0, 0, 0}, [7]int{400, 401, 401, 400, 400, 403, 406}, "8933c8fa2b43934e3c1f7c2be30a14c9976e10389c0a025452d63e22c3b8e162"},
		{"sqrt8_260", "hilight-cp", "Recompile", [7]int{398, 398, 203, 203, 0, 0, 0}, [7]int{398, 399, 399, 398, 398, 408, 405}, "a8bf6c2ff1146ba070bcb2215553fd234c1fbdf4f4e1fa2eec64b26748f880c8"},
		{"sqrt8_260", "hilight-cp", "RecompileFrom", [7]int{398, 398, 203, 203, 0, 0, 0}, [7]int{398, 399, 399, 398, 398, 408, 405}, "a8bf6c2ff1146ba070bcb2215553fd234c1fbdf4f4e1fa2eec64b26748f880c8"},
		{"sqrt8_260", "autobraid-sp", "Recompile", [7]int{404, 404, 203, 203, 0, 4, 0}, [7]int{404, 405, 404, 404, 404, 413, 405}, "4daae21a4aed53e01fa299151c82e0da358bbc8b0d09e4ffadef10e9fe544999"},
		{"sqrt8_260", "autobraid-sp", "RecompileFrom", [7]int{404, 404, 203, 203, 0, 4, 0}, [7]int{404, 405, 404, 404, 404, 413, 405}, "4daae21a4aed53e01fa299151c82e0da358bbc8b0d09e4ffadef10e9fe544999"},
	}
	methods := []string{"hilight", "hilight-map", "hilight-map-parallel", "hilight-cp", "autobraid-sp"}
	circuits := []string{"rd32_270", "4gt11_82", "QFT-10", "Ising-13", "alu-v0_26", "QFT-16", "CC-18", "sqrt8_260"}
	i := 0
	for _, name := range circuits {
		c, ok := hilight.Benchmark(name)
		if !ok {
			t.Fatalf("benchmark %q not registered", name)
		}
		g := hilight.RectGrid(c.NumQubits)
		for _, method := range methods {
			parent, err := hilight.Compile(c, g, hilight.WithMethod(method))
			if err != nil {
				t.Fatalf("%s/%s: parent: %v", name, method, err)
			}
			for _, via := range []string{"Recompile", "RecompileFrom"} {
				var warm, latency [7]int
				h := sha256.New()
				for di, d := range recompileDeltas {
					delta := d.delta(parent)
					var res *hilight.Result
					if via == "Recompile" {
						res, err = hilight.Recompile(parent, delta)
					} else {
						edited, aerr := session.ApplyEdits(c, delta.Edits)
						if aerr != nil {
							t.Fatalf("%s/%s/%s: %v", name, method, d.name, aerr)
						}
						opts := []hilight.Option{hilight.WithMethod(method)}
						if delta.Defects != nil {
							opts = append(opts, hilight.WithDefects(delta.Defects))
						}
						res, err = hilight.RecompileFrom(c, parent.Schedule, edited, g, opts...)
					}
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", name, method, d.name, via, err)
					}
					if err := res.Schedule.Validate(res.Circuit); err != nil {
						t.Fatalf("%s/%s/%s/%s: invalid schedule: %v", name, method, d.name, via, err)
					}
					bin, err := hilight.EncodeScheduleBinary(res.Schedule)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(bin)
					warm[di], latency[di] = res.WarmCycles, res.Latency
				}
				got := hex.EncodeToString(h.Sum(nil))
				line := fmt.Sprintf("{%q, %q, %q, %#v, %#v, %q},", name, method, via, warm, latency, got)
				if i >= len(want) {
					t.Errorf("no row for %s", line)
				} else if w := want[i]; w.circuit != name || w.method != method || w.via != via ||
					w.warm != warm || w.latency != latency || w.digest != got {
					t.Errorf("row %d: got %s", i, line)
				}
				i++
			}
		}
	}
}
