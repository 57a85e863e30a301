package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"genlink/internal/datagen"
	"genlink/internal/evalx"
	"genlink/internal/genlink"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// The serving workloads score with fixed rule files, so a learner change
// cannot silently change what they measure. regenRules learns them anew
// (bash perfbench/run.sh --regen-rules).
const (
	coraRuleFile  = "rules/cora_title.json" // Levenshtein on the lowercased title
	drugsRuleFile = "rules/drugbank.json"   // DBpediaDrugBank, full representation
	ruleSeed      = 1
)

func loadRule(benchDir, name string) (*rule.Rule, string, error) {
	path, err := filepath.Abs(filepath.Join(benchDir, name))
	if err != nil {
		return nil, "", err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	r, err := rule.ParseJSON(data)
	if err != nil {
		return nil, "", fmt.Errorf("parse %s: %w", path, err)
	}
	return r, path, nil
}

func regenRules(benchDir string) error {
	learn := func(ds string, cfg genlink.Config, out string) error {
		d := datagen.ByName(ds)(ruleSeed)
		folds := evalx.SplitFolds(d.Refs, 2, rand.New(rand.NewSource(ruleSeed)))
		res, err := genlink.NewLearner(cfg).LearnWithValidation(folds[0], folds[1])
		if err != nil {
			return fmt.Errorf("learn %s: %w", ds, err)
		}
		data, err := res.Best.MarshalJSON()
		if err != nil {
			return err
		}
		path := filepath.Join(benchDir, out)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: validation F1 %.4f\n%s\n", path, res.BestValF1, res.Best.Render())
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}

	cora := genlink.DefaultConfig()
	cora.PopulationSize = 200
	cora.MaxIterations = 20
	cora.Seed = ruleSeed
	cora.Measures = []similarity.Measure{similarity.Levenshtein()}
	if err := learn("Cora", cora, coraRuleFile); err != nil {
		return err
	}
	drugs := genlink.DefaultConfig()
	drugs.Seed = ruleSeed
	return learn("DBpediaDrugBank", drugs, drugsRuleFile)
}
