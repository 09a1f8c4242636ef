"""Write a labelled dataset as the `text,label` CSV that
`promptxfer.corpus.load_csv` reads; the tests build CSV tasks with it."""

import csv


def write_csv(dataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        for text, label in zip(dataset.texts, dataset.labels):
            writer.writerow([text, int(label)])
