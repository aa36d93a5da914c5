// Command pipescore loads a proteome and interaction network and prints
// the PIPE interaction score of one protein pair, or of a query sequence
// against a database protein.
//
// Usage:
//
//	pipescore -proteome data/proteome.fasta -graph data/interactions.tsv \
//	          -a YBL051C -b YAL017W
//	pipescore -proteome ... -graph ... -query inhibitor.fasta -b YBL051C
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/pipe"
	"repro/internal/ppigraph"
	"repro/internal/seq"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipescore: ")
	var (
		proteomePath = flag.String("proteome", "data/proteome.fasta", "proteome FASTA")
		graphPath    = flag.String("graph", "data/interactions.tsv", "interaction TSV")
		aName        = flag.String("a", "", "first protein name (in the proteome)")
		bName        = flag.String("b", "", "second protein name (in the proteome)")
		queryPath    = flag.String("query", "", "FASTA with a novel query sequence (replaces -a)")
		threads      = flag.Int("threads", 0, "worker threads (0 = all cores)")
	)
	flag.Parse()

	proteins, err := seq.LoadFASTAFile(*proteomePath)
	if err != nil {
		log.Fatal(err)
	}
	graph, err := ppigraph.LoadTSVFile(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := pipe.New(proteins, graph, pipe.Config{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	bID, ok := graph.ID(*bName)
	if !ok {
		log.Fatalf("protein %q not in the proteome", *bName)
	}

	switch {
	case *queryPath != "":
		queries, err := seq.LoadFASTAFile(*queryPath)
		if err != nil {
			log.Fatal(err)
		}
		for _, q := range queries {
			score := engine.Score(q, bID, *threads)
			fmt.Printf("PIPE(%s, %s) = %.4f\n", q.Name(), *bName, score)
		}
	case *aName != "":
		aID, ok := graph.ID(*aName)
		if !ok {
			log.Fatalf("protein %q not in the proteome", *aName)
		}
		fmt.Printf("PIPE(%s, %s) = %.4f\n", *aName, *bName, engine.ScorePair(aID, bID))
		fmt.Printf("known interaction in the database: %v\n", graph.HasEdge(aID, bID))
	default:
		log.Fatal("need -a NAME or -query FILE")
	}
}
