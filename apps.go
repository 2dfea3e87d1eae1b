package dynasym

import (
	"dynasym/internal/workloads"
	"dynasym/internal/xtr"
)

// Application builders re-exported from internal/workloads: the paper's
// synthetic layered DAGs, K-means clustering and 2D Heat — the workloads
// of its Figures 4–10, which the paper scenario families in
// internal/scenario simulate. They produce ordinary Graphs that run on
// either engine.

type (
	// SyntheticConfig describes a layered synthetic DAG (one critical
	// task per layer releases the next layer).
	SyntheticConfig = workloads.SyntheticConfig
	// KernelKind selects the synthetic DAG node type.
	KernelKind = workloads.KernelKind
	// KMeansConfig parameterizes the K-means application.
	KMeansConfig = workloads.KMeansConfig
	// KMeans is the K-means application instance.
	KMeans = workloads.KMeans
	// HeatConfig parameterizes the shared-memory 2D Heat application.
	HeatConfig = workloads.HeatConfig
	// Heat is the shared-memory 2D Heat application instance.
	Heat = workloads.Heat
)

// Synthetic DAG kernel kinds.
const (
	MatMul  = workloads.MatMul
	Copy    = workloads.Copy
	Stencil = workloads.Stencil
)

// BuildSyntheticDAG constructs the paper's layered synthetic DAG.
func BuildSyntheticDAG(cfg SyntheticConfig) *Graph { return workloads.BuildSynthetic(cfg) }

// NewKMeans builds a K-means application over synthetic Gaussian blobs.
func NewKMeans(cfg KMeansConfig) *KMeans { return workloads.NewKMeans(cfg) }

// NewHeat builds a shared-memory 2D Heat diffusion application.
func NewHeat(cfg HeatConfig) *Heat { return workloads.NewHeat(cfg) }

// StartInterferingLoad launches n busy-spinning OS threads as a synthetic
// co-running application for interference runs on the real runtime. Call the
// returned function to stop them.
func StartInterferingLoad(n int) (stop func()) { return xtr.SpinLoad(n) }
